//! `obsctl` — command-line client for the CachePortal observability surface.
//!
//! ```text
//! obsctl metrics --addr 127.0.0.1:9184
//! obsctl health  --addr 127.0.0.1:9184
//! obsctl explain --addr 127.0.0.1:9184 --url 'http://shop/carSearch?maxprice=30000'
//! obsctl explain --file obs-export.jsonl --lsn 5
//! obsctl diff before.json after.json
//! obsctl demo --serve 127.0.0.1:0 --hold-secs 30 --export obs-export.jsonl
//! obsctl durable --addr 127.0.0.1:9184
//! ```
//!
//! * `metrics` — fetch `/metrics` (Prometheus text exposition) and print it.
//! * `health` — fetch `/healthz` and print the verdict; exits 0 only when
//!   the portal reports healthy (open breakers, recovery in progress, or
//!   WAL errors all turn this non-zero, so scripts can gate on it).
//! * `explain` — fetch `/explain?url=…` / `/explain?lsn=…` from a live admin
//!   endpoint, or reconstruct the same answer offline from a JSONL export,
//!   and pretty-print the eject chains.
//! * `diff` — compare the `metrics.counters` sections of two
//!   `metrics_snapshot()` documents.
//! * `trace` — fetch `/trace` and print the recent events with their causal
//!   ids (trace/span/parent) as a table, or raw with `--json`.
//! * `timeline` — fetch the per-sync-point phase timeline from `/timeline`
//!   (tabular or `--json`; `--stable` zeroes wall-clock fields for
//!   byte-stable output; `--chrome FILE` writes Chrome `trace_event` JSON
//!   loadable in `chrome://tracing` / Perfetto).
//! * `scorecard` — fetch the per-query-type cost/benefit scorecards from
//!   `/scorecards` and render them as a table, or raw with `--json`.
//! * `slo` — fetch the freshness SLO document from `/slo` and render the
//!   per-objective burn rates, firing alerts, and recent transitions
//!   (`--json` for raw, `--stable` for the deterministic rendering); exits
//!   non-zero when any burn-rate alert is firing, so scripts can gate on
//!   the freshness contract exactly like they gate on `health`.
//! * `blackbox` — trigger `/flightrecord?dump=1` on a live portal and write
//!   the self-contained black-box bundle to `--out FILE` for offline
//!   post-mortems (`--stable` for the byte-stable rendering, `--index` to
//!   list the recorder's capture ring instead).
//! * `durable` — the journal's part of `/metrics` as a table: WAL appends,
//!   bytes, fsyncs and resets, checkpoints taken and their bytes, and what a
//!   persist pass and a checkpoint cost in wall-clock microseconds.
//! * `demo` — run a small car-search workload, start the admin endpoint,
//!   write a JSONL export, print one explain chain, and hold the server open
//!   (CI smoke-tests `/metrics` and `/healthz` against it).

use cacheportal::bus::BusDoc;
use cacheportal::cache::{PageCache, PageCacheConfig};
use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::obs::{
    EjectRecord, Explanation, FlightBundle, FlightIndexDoc, MetricsDoc, ScorecardsDoc, SloDoc,
    TimelineDoc, TraceDoc,
};
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::CachePortal;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        Some("scorecard") => cmd_scorecard(&args[1..]),
        Some("slo") => cmd_slo(&args[1..]),
        Some("bus") => cmd_bus(&args[1..]),
        Some("durable") => cmd_durable(&args[1..]),
        Some("blackbox") => cmd_blackbox(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        _ => {
            eprintln!(
                "usage: obsctl <metrics|health|explain|trace|timeline|scorecard|slo|bus|durable|\
                 blackbox|diff|demo> [options]"
            );
            eprintln!("  metrics   --addr HOST:PORT");
            eprintln!("  health    --addr HOST:PORT");
            eprintln!("  explain   (--addr HOST:PORT | --file EXPORT.jsonl) (--url URL | --lsn N)");
            eprintln!("  trace     --addr HOST:PORT [-n N] [--json]");
            eprintln!("  timeline  --addr HOST:PORT [--stable] [--json] [--chrome FILE]");
            eprintln!("  scorecard --addr HOST:PORT [--json]");
            eprintln!("  slo       --addr HOST:PORT [--stable] [--json]");
            eprintln!("  bus       --addr HOST:PORT [--json]");
            eprintln!("  durable   --addr HOST:PORT");
            eprintln!("  blackbox  --addr HOST:PORT --out FILE [--stable] | --index");
            eprintln!("  diff BEFORE.json AFTER.json");
            eprintln!("  demo --serve HOST:PORT [--hold-secs N] [--export FILE] [--durable DIR]");
            2
        }
    };
    std::process::exit(code);
}

/// Value of `--flag` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_metrics(args: &[String]) -> i32 {
    let Some(addr) = flag(args, "--addr") else {
        eprintln!("obsctl metrics: --addr HOST:PORT required");
        return 2;
    };
    match http_get(addr, "/metrics") {
        Ok((200, body)) => {
            print!("{body}");
            0
        }
        Ok((code, body)) => {
            eprintln!("GET /metrics -> {code}\n{body}");
            1
        }
        Err(e) => {
            eprintln!("GET /metrics failed: {e}");
            1
        }
    }
}

fn cmd_health(args: &[String]) -> i32 {
    let Some(addr) = flag(args, "--addr") else {
        eprintln!("obsctl health: --addr HOST:PORT required");
        return 2;
    };
    match http_get(addr, "/healthz") {
        Ok((code, body)) => {
            let verdict = if code == 200 { "healthy" } else { "UNHEALTHY" };
            print!("{verdict} (HTTP {code})\n{body}");
            if !body.ends_with('\n') {
                println!();
            }
            i32::from(code != 200)
        }
        Err(e) => {
            eprintln!("GET /healthz failed: {e}");
            1
        }
    }
}

fn cmd_explain(args: &[String]) -> i32 {
    let url = flag(args, "--url");
    let lsn = flag(args, "--lsn");
    if url.is_none() == lsn.is_none() {
        eprintln!("obsctl explain: exactly one of --url / --lsn required");
        return 2;
    }
    let doc = if let Some(addr) = flag(args, "--addr") {
        let path = match (url, lsn) {
            (Some(u), _) => format!("/explain?url={}", percent_encode(u)),
            (_, Some(l)) => format!("/explain?lsn={l}"),
            _ => unreachable!(),
        };
        fetch(addr, &path)
    } else if let Some(file) = flag(args, "--file") {
        explain_from_export(file, url, lsn).map_err(|e| format!("cannot explain from {file}: {e}"))
    } else {
        eprintln!("obsctl explain: --addr or --file required");
        return 2;
    };
    match doc {
        Ok(doc) => {
            print!("{}", render_explanation(&doc));
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// What kind of JSONL line this is; the rest of the line is that kind's
/// document.
#[derive(Deserialize)]
struct Line {
    kind: String,
}

/// Rebuild an [`Explanation`] from the `eject` lines of a JSONL export (the
/// offline twin of the admin endpoint).
fn explain_from_export(
    path: &str,
    url: Option<&str>,
    lsn: Option<&str>,
) -> Result<Explanation, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let lsn: Option<u64> = match lsn {
        Some(s) => Some(s.parse().map_err(|_| format!("bad --lsn {s}"))?),
        None => None,
    };
    let mut matches = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Line { kind } = serde_json::from_str(line).map_err(|e| e.to_string())?;
        if kind != "eject" {
            continue;
        }
        let rec: EjectRecord = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let hit = match (url, lsn) {
            (Some(u), _) => &*rec.url == u,
            (_, Some(l)) => rec.lsn_first <= l && rec.lsn_last >= l,
            _ => false,
        };
        if hit {
            matches.push(rec);
        }
    }
    Ok(Explanation { matches, truncated: false, dropped_records: 0, qi_map: None })
}

/// Pretty-print one explanation (live `/explain` response or the offline
/// reconstruction): one block per eject chain.
fn render_explanation(doc: &Explanation) -> String {
    let mut out = String::new();
    if doc.matches.is_empty() {
        out.push_str("no matching eject records\n");
    }
    for m in &doc.matches {
        out.push_str(&format!(
            "eject #{} of {}  (sync #{}, t={}us{})\n",
            m.seq,
            m.url,
            m.sync_seq,
            m.ts,
            if m.resident { "" } else { ", not resident" },
        ));
        out.push_str(&format!("  update log: LSNs {}..={}\n", m.lsn_first, m.lsn_last));
        for d in &m.deltas {
            out.push_str(&format!("  delta: {} +{} / -{}\n", d.table, d.inserted, d.deleted));
        }
        for c in &m.causes {
            out.push_str(&format!(
                "  cause: type #{} {}\n         params [{}]\n         verdict {} — {}\n",
                c.query_type,
                c.type_sql,
                c.params.join(", "),
                c.verdict,
                c.detail
            ));
        }
    }
    for row in doc.qi_map.iter().flatten() {
        out.push_str(&format!("qi row #{} [{}]: {}\n", row.id, row.servlet, row.sql));
    }
    if doc.truncated {
        out.push_str(&format!(
            "warning: ring truncated ({} records dropped) — older evidence is gone\n",
            doc.dropped_records
        ));
    }
    out
}

/// GET `path` and read the body as that route's document. The error names
/// the route and, when the body is not the document this build knows, the
/// field it stopped at.
fn fetch<T: Deserialize>(addr: &str, path: &str) -> Result<T, String> {
    match http_get(addr, path) {
        Ok((200, body)) => serde_json::from_str(&body).map_err(|e| format!("GET {path}: {e}")),
        Ok((code, body)) => Err(format!("GET {path} -> {code}\n{body}")),
        Err(e) => Err(format!("GET {path} failed: {e}")),
    }
}

/// [`fetch`] from `--addr`, for a command: the error is printed and what
/// comes back in its place is the exit code.
fn fetch_doc<T: Deserialize>(args: &[String], cmd: &str, path: &str) -> Result<T, i32> {
    let Some(addr) = flag(args, "--addr") else {
        eprintln!("obsctl {cmd}: --addr HOST:PORT required");
        return Err(2);
    };
    fetch(addr, path).map_err(|e| {
        eprintln!("{e}");
        1
    })
}

/// `--json`: the document as the route rendered it.
fn print_json<T: Serialize>(doc: &T) {
    println!("{}", serde_json::to_string_pretty(doc).expect("render"));
}

fn cmd_trace(args: &[String]) -> i32 {
    let n: u64 = flag(args, "-n").and_then(|s| s.parse().ok()).unwrap_or(64);
    let doc: TraceDoc = match fetch_doc(args, "trace", &format!("/trace?n={n}")) {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    if args.iter().any(|a| a == "--json") {
        print_json(&doc);
        return 0;
    }
    let mut rows = vec![vec![
        "seq".to_string(),
        "ts_us".to_string(),
        "trace".to_string(),
        "span".to_string(),
        "parent".to_string(),
        "dur_us".to_string(),
        "scope".to_string(),
        "name".to_string(),
        "detail".to_string(),
    ]];
    for e in &doc.recent {
        let id = |v: u64| if e.trace_id == 0 { "-".to_string() } else { v.to_string() };
        rows.push(vec![
            e.seq.to_string(),
            e.ts.to_string(),
            id(e.trace_id),
            id(e.span_id),
            id(e.parent_span),
            e.duration_micros.map_or("-".to_string(), |d| d.to_string()),
            e.scope.to_string(),
            e.name.to_string(),
            e.detail.to_string(),
        ]);
    }
    print!("{}", cacheportal_bench::render_table(&rows));
    println!(
        "{} recorded, {} dropped{}",
        doc.recorded,
        doc.dropped,
        if doc.truncated { " (ring truncated — older events are gone)" } else { "" }
    );
    0
}

/// As much of Chrome's `trace_event` document as the count needs; the
/// format is Chrome's, and what is written out is the document as fetched.
#[derive(Deserialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    traceEvents: Vec<serde_json::Value>,
}

fn cmd_timeline(args: &[String]) -> i32 {
    if let Some(path) = flag(args, "--chrome") {
        let doc: serde_json::Value = match fetch_doc(args, "timeline", "/timeline?format=chrome") {
            Ok(doc) => doc,
            Err(code) => return code,
        };
        let json = serde_json::to_string(&doc).expect("render");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        let n = match serde_json::from_value::<ChromeTrace>(doc) {
            Ok(trace) => trace.traceEvents.len(),
            Err(e) => {
                eprintln!("GET /timeline?format=chrome: {e}");
                return 1;
            }
        };
        println!("wrote {n} trace events to {path} (open in chrome://tracing or Perfetto)");
        return 0;
    }
    let stable = args.iter().any(|a| a == "--stable");
    let path = if stable { "/timeline?stable=1" } else { "/timeline" };
    let doc: TimelineDoc = match fetch_doc(args, "timeline", path) {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    if args.iter().any(|a| a == "--json") {
        print_json(&doc);
        return 0;
    }
    for t in &doc.sync_points {
        println!(
            "sync #{} (trace {}): lsns {}..={}, {} records, {} polls, {} ejected, wall {}us",
            t.sync_seq,
            t.trace_id,
            t.lsn_first,
            t.lsn_last,
            t.records,
            t.polls,
            t.ejected,
            t.wall_micros,
        );
        for s in &t.stages {
            println!("  {:<12} {:>8} us  work={}", s.name, s.micros, s.work);
        }
    }
    println!(
        "{} sync points recorded, {} dropped{}",
        doc.recorded,
        doc.dropped,
        if doc.truncated { " (truncated — older entries or trace events are gone)" } else { "" }
    );
    0
}

fn cmd_scorecard(args: &[String]) -> i32 {
    let doc: ScorecardsDoc = match fetch_doc(args, "scorecard", "/scorecards") {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    if args.iter().any(|a| a == "--json") {
        print_json(&doc);
        return 0;
    }
    if doc.scorecards.is_empty() {
        println!("no scorecards yet (no query types attributed)");
        return 0;
    }
    let mut rows = vec![vec![
        "type".to_string(),
        "hits".to_string(),
        "misses".to_string(),
        "hit_rate".to_string(),
        "cost/render".to_string(),
        "inval".to_string(),
        "ejects".to_string(),
        "polls".to_string(),
        "poll_us".to_string(),
        "stale_us".to_string(),
        "idx_hit".to_string(),
        "residual".to_string(),
    ]];
    for c in &doc.scorecards {
        rows.push(vec![
            format!("#{}", c.type_id),
            c.hits.to_string(),
            c.misses.to_string(),
            format!("{:.3}", c.hit_rate),
            format!("{:.1}", c.avg_render_cost),
            c.invalidations.to_string(),
            c.pages_ejected.to_string(),
            c.polls.to_string(),
            c.poll_spend_micros.to_string(),
            c.staleness_micros.to_string(),
            format!("{:.3}", c.index_hit_rate),
            format!("{:.3}", c.residual_fraction),
        ]);
    }
    print!("{}", cacheportal_bench::render_table(&rows));
    for c in &doc.scorecards {
        println!("type #{}: {}", c.type_id, c.sql);
    }
    println!("version {}, {} urls pending attribution", doc.version, doc.pending_urls);
    0
}

/// `obsctl slo`: the freshness contract at a glance. Exit status mirrors
/// the alert state — 0 quiet, 1 firing — so scripts can gate deploys on
/// the error budget the same way they gate on `obsctl health`.
fn cmd_slo(args: &[String]) -> i32 {
    let stable = args.iter().any(|a| a == "--stable");
    let path = if stable { "/slo?stable=1" } else { "/slo" };
    let doc: SloDoc = match fetch_doc(args, "slo", path) {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    let (fast, slow) = (doc.firing.fast, doc.firing.slow);
    if args.iter().any(|a| a == "--json") {
        print_json(&doc);
        return i32::from(fast + slow > 0);
    }
    let mut rows = vec![vec![
        "objective".to_string(),
        "goal".to_string(),
        "good".to_string(),
        "bad".to_string(),
        "burn(fast)".to_string(),
        "burn(slow)".to_string(),
        "state".to_string(),
    ]];
    for o in &doc.objectives {
        let burn = |pair: &str| match o.burn.iter().find(|b| b.pair == pair) {
            Some(b) => format!("{:.1}/{:.1}", b.short, b.long),
            None => "-".to_string(),
        };
        rows.push(vec![
            o.id.to_string(),
            format!("{:.2}", o.goal),
            o.good.to_string(),
            o.bad.to_string(),
            burn("fast"),
            burn("slow"),
            if o.firing { "FIRING" } else { "ok" }.to_string(),
        ]);
    }
    print!("{}", cacheportal_bench::render_table(&rows));
    for a in &doc.alerts.recent {
        println!(
            "alert #{} t={}us {} {}/{} ({})",
            a.seq, a.ts, a.state, a.objective, a.pair, a.severity,
        );
    }
    println!(
        "firing: fast={fast} slow={slow} (alerts recorded={} dropped={})",
        doc.alerts.recorded, doc.alerts.dropped,
    );
    i32::from(fast + slow > 0)
}

/// Per-edge invalidation-bus health: acked watermark, lag behind the
/// latest published batch, retry/failure spend, and partition state.
/// Exits 1 when any edge is partitioned or degraded so scripts can gate
/// on bus health the same way `slo` gates on burn alerts.
fn cmd_bus(args: &[String]) -> i32 {
    let doc: BusDoc = match fetch_doc(args, "bus", "/bus") {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    let unhealthy = doc.edges.iter().filter(|e| e.partitioned || e.degraded).count();
    if args.iter().any(|a| a == "--json") {
        print_json(&doc);
        return i32::from(unhealthy > 0);
    }
    let mut rows = vec![vec![
        "edge".to_string(),
        "link".to_string(),
        "acked".to_string(),
        "lag".to_string(),
        "state".to_string(),
        "fail-rounds".to_string(),
        "retries".to_string(),
        "failures".to_string(),
        "applied".to_string(),
        "dupes".to_string(),
        "ejected".to_string(),
        "flushed".to_string(),
    ]];
    for e in &doc.edges {
        let state = if e.partitioned {
            "PARTITIONED"
        } else if e.degraded {
            "DEGRADED"
        } else {
            "ok"
        };
        rows.push(vec![
            e.name.clone(),
            if e.connected { "local" } else { "remote" }.to_string(),
            e.acked.to_string(),
            e.lag.to_string(),
            state.to_string(),
            e.consec_failed_rounds.to_string(),
            e.retries.to_string(),
            e.failures.to_string(),
            e.applied_batches.to_string(),
            e.duplicates_absorbed.to_string(),
            e.ejected_pages.to_string(),
            e.flushed_pages.to_string(),
        ]);
    }
    print!("{}", cacheportal_bench::render_table(&rows));
    println!(
        "latest_seq={} published={} rounds={} retained={} catch_up={} reboots={} \
         partitioned_edges={}",
        doc.latest_seq,
        doc.published,
        doc.rounds,
        doc.retained,
        doc.catch_up_batches,
        doc.reboots,
        doc.partitioned_edges,
    );
    i32::from(unhealthy > 0)
}

/// `obsctl blackbox`: pull a flight-record dump off a live portal for an
/// offline post-mortem, or list the recorder's capture index.
/// The `durable.*` samples of a `/metrics` body, one table row each.
fn durable_rows(metrics: &str) -> Vec<Vec<String>> {
    let mut rows = vec![vec!["durable".to_string(), "value".to_string()]];
    rows.extend(metrics.lines().filter_map(|line| {
        let (name, value) = line.strip_prefix("cacheportal_durable_")?.rsplit_once(' ')?;
        Some(vec![name.to_string(), value.to_string()])
    }));
    rows
}

fn cmd_durable(args: &[String]) -> i32 {
    let Some(addr) = flag(args, "--addr") else {
        eprintln!("obsctl durable: --addr HOST:PORT required");
        return 2;
    };
    match http_get(addr, "/metrics") {
        Ok((200, body)) => {
            let rows = durable_rows(&body);
            if rows.len() == 1 {
                println!("no durable journal: the portal was built without durable(dir)");
            } else {
                print!("{}", cacheportal_bench::render_table(&rows));
            }
            0
        }
        Ok((code, body)) => {
            eprintln!("GET /metrics -> {code}\n{body}");
            1
        }
        Err(e) => {
            eprintln!("GET /metrics failed: {e}");
            1
        }
    }
}

fn cmd_blackbox(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--index") {
        let doc: FlightIndexDoc = match fetch_doc(args, "blackbox", "/flightrecord") {
            Ok(doc) => doc,
            Err(code) => return code,
        };
        if doc.schema != "cacheportal.flightrecord.v1.index" {
            eprintln!("unexpected index schema: {:?}", doc.schema);
            return 1;
        }
        print_json(&doc);
        return 0;
    }
    let Some(out) = flag(args, "--out") else {
        eprintln!("obsctl blackbox: --out FILE required");
        return 2;
    };
    let stable = args.iter().any(|a| a == "--stable");
    let path = if stable {
        "/flightrecord?dump=1&stable=1"
    } else {
        "/flightrecord?dump=1"
    };
    let doc: FlightBundle = match fetch_doc(args, "blackbox", path) {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    if doc.schema != cacheportal::obs::FLIGHT_RECORD_SCHEMA {
        eprintln!("unexpected dump schema: {:?}", doc.schema);
        return 1;
    }
    let rendered = serde_json::to_string_pretty(&doc).expect("render");
    if let Err(e) = std::fs::write(out, &rendered) {
        eprintln!("cannot write {out}: {e}");
        return 1;
    }
    println!(
        "wrote {out}: {} bytes, reason {:?}, t={}us{}",
        rendered.len(),
        doc.reason,
        doc.ts,
        if stable { " (stable)" } else { "" },
    );
    0
}

/// The part of a `metrics_snapshot()` document `diff` compares.
#[derive(Deserialize)]
struct Registry {
    metrics: MetricsDoc,
}

fn cmd_diff(args: &[String]) -> i32 {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        eprintln!("obsctl diff: two snapshot files required");
        return 2;
    };
    let load = |p: &str| -> Result<MetricsDoc, String> {
        let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
        let doc: Registry = serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))?;
        Ok(doc.metrics)
    };
    let (before, after) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x.counters, y.counters),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("obsctl diff: {e}");
            return 1;
        }
    };
    let mut changed = 0;
    for (k, v) in &after {
        let prev = before.get(k).copied().unwrap_or(0);
        if *v != prev {
            println!("{k}: {prev} -> {v} ({:+})", *v as i64 - prev as i64);
            changed += 1;
        }
    }
    if changed == 0 {
        println!("no counter changes");
    }
    0
}

fn cmd_demo(args: &[String]) -> i32 {
    let Some(addr) = flag(args, "--serve") else {
        eprintln!("obsctl demo: --serve HOST:PORT required");
        return 2;
    };
    let hold_secs: u64 = flag(args, "--hold-secs").and_then(|s| s.parse().ok()).unwrap_or(30);

    let portal = demo_portal(flag(args, "--durable"));
    // Two edge caches behind the bus so `/bus` (and `obsctl bus`) shows a
    // live watermark table instead of the no-edges placeholder.
    for _ in 0..2 {
        portal.register_edge_cache(Arc::new(PageCache::new(PageCacheConfig::default())));
    }
    let req = |maxprice: i64| {
        HttpRequest::get("shop.example.com", "/carSearch", &[("maxprice", &maxprice.to_string())])
    };
    // Populate, sync, mutate, sync: leaves real eject chains behind.
    portal.request(&req(20000));
    portal.request(&req(30000));
    portal.sync_point().expect("sync");
    portal.advance_clock(1_000);
    portal.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").expect("update");
    portal.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").expect("update");
    portal.sync_point().expect("sync");

    if let Some(path) = flag(args, "--export") {
        let mut f = std::fs::File::create(path).expect("create export file");
        let stats = portal.export_jsonl(&mut f).expect("export");
        println!(
            "exported {} trace events + {} eject records to {path}",
            stats.trace_events, stats.eject_records
        );
    }

    for rec in portal.obs().provenance.recent(1) {
        println!("latest eject chain:");
        print!("{}", render_explanation(&portal.explain_invalidation(&rec.url)));
    }

    let server = portal.serve_admin(addr).expect("bind admin endpoint");
    println!("admin listening on {}", server.addr());
    println!("try: obsctl metrics --addr {}", server.addr());
    std::thread::sleep(std::time::Duration::from_secs(hold_secs));
    server.shutdown();
    0
}

/// The paper's running car-search example, assembled as a live portal;
/// journaled to `durable_dir` if there is one, with a checkpoint at the
/// demo's second sync point so that `obsctl durable` has one to show.
fn demo_portal(durable_dir: Option<&str>) -> CachePortal {
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))")
        .expect("schema");
    db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT, INDEX(model))")
        .expect("schema");
    db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)")
        .expect("seed");
    db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5)")
        .expect("seed");
    let mut builder = CachePortal::builder(db);
    if let Some(dir) = durable_dir {
        builder = builder.durable(dir).checkpoint_interval(2);
    }
    let portal = builder.build().expect("build portal");
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("carSearch").with_key_get_params(&["maxprice"]),
        "Car search",
        vec![QueryTemplate::new(
            "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage \
             WHERE Car.model = Mileage.model AND Car.price < $1",
            vec![ParamSource::Get("maxprice".into(), ColType::Int)],
        )],
    )));
    portal
}

/// Minimal blocking HTTP/1.1 GET (the admin endpoint always closes the
/// connection after one response).
fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, body))
}

/// Percent-encode a query-parameter value (everything but unreserved chars).
fn percent_encode(s: &str) -> String {
    s.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A route whose document has lost a field this build reads: the
    /// command fails, and says which route and which field.
    #[test]
    fn a_document_missing_a_field_names_the_route_and_the_field() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // `recorded` is gone from the /trace document.
            let body = r#"{"dropped": 0, "truncated": false, "recent": []}"#;
            for conn in listener.incoming().take(2) {
                let mut conn = conn.unwrap();
                let mut head = [0u8; 512];
                let _ = conn.read(&mut head).unwrap();
                write!(conn, "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}", body.len())
                    .unwrap();
            }
        });
        let err = fetch::<TraceDoc>(&addr, "/trace?n=64").unwrap_err();
        assert!(err.contains("GET /trace?n=64") && err.contains("TraceDoc.recorded"), "{err}");
        assert_eq!(cmd_trace(&["--addr".to_string(), addr]), 1);
        server.join().unwrap();
    }

    /// A page whose key holds escaped bytes is explained through the admin
    /// server: `percent_encode` carries the key's own `%XX` escapes intact,
    /// and the admin decodes the query value back to the key.
    #[test]
    fn explain_by_url_finds_a_key_with_escaped_bytes() {
        let portal = demo_portal(None);
        portal.register_servlet(Arc::new(SqlServlet::new(
            ServletSpec::new("byMaker").with_key_get_params(&["maker"]),
            "By maker",
            vec![QueryTemplate::new(
                "SELECT model, price FROM Car WHERE maker = $1",
                vec![ParamSource::Get("maker".into(), ColType::Str)],
            )],
        )));
        let maker = "Kia&g:x=1%?+";
        let req = HttpRequest::get("shop.example.com", "/byMaker", &[("maker", maker)]);
        let key = portal.request(&req).key.expect("a routed page");
        assert_eq!(key.as_str(), "shop.example.com/byMaker?g:maker=Kia%26g:x%3D1%25%3F+");
        portal.sync_point().expect("sync");
        portal.update(&format!("INSERT INTO Car VALUES ('{maker}', 'Rio', 12000)")).expect("insert");
        portal.sync_point().expect("sync");

        let admin = portal.serve_admin("127.0.0.1:0").expect("admin server");
        let addr = admin.addr().to_string();
        let path = format!("/explain?url={}", percent_encode(key.as_str()));
        let doc: Explanation = fetch(&addr, &path).expect("explain");
        assert_eq!(doc, portal.explain_invalidation(key.as_str()));
        assert_eq!(doc.matches.len(), 1, "the insert ejected the page");
        assert_eq!(&*doc.matches[0].url, key.as_str());
        let args = ["--addr", &addr, "--url", key.as_str()].map(String::from);
        assert_eq!(cmd_explain(&args), 0);
        admin.shutdown();
    }

    /// A journaled demo portal's registry carries every name the durable
    /// table promises, and the table is the journal's part of `/metrics`.
    #[test]
    fn durable_table_lists_the_journals_metrics() {
        let dir = std::env::temp_dir().join(format!("cp-obsctl-durable-{}", std::process::id()));
        let portal = demo_portal(dir.to_str());
        let req = HttpRequest::get("shop.example.com", "/carSearch", &[("maxprice", "20000")]);
        portal.request(&req);
        portal.sync_point().expect("sync");
        portal.sync_point().expect("sync"); // interval 2: the checkpoint
        let metrics = portal.obs().metrics.render_prometheus();
        let rows = durable_rows(&metrics);
        let value_of = |name: &str| {
            let row = rows.iter().find(|r| r[0] == name);
            row.unwrap_or_else(|| panic!("no {name} row in {rows:?}"))[1].clone()
        };
        assert_eq!(value_of("wal_syncs_total"), "2");
        assert_eq!(value_of("checkpoints_total"), "1");
        assert_eq!(value_of("persist_micros_count"), "2");
        assert_eq!(value_of("checkpoint_micros_count"), "1");
        let bytes: u64 = value_of("checkpoint_bytes_total").parse().unwrap();
        let snapshot = std::fs::metadata(dir.join("snapshot.bin")).unwrap().len();
        assert_eq!(bytes + 24, snapshot, "payload bytes plus the header are the file");
        assert_eq!(durable_rows("cacheportal_cache_page_hits_total 3\n").len(), 1);
        drop(portal);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
