//! **Fig E3**: invalidation-policy ablation on the *functional* CachePortal
//! system. Compares the invalidation quality/cost trade-off of §4.2.2:
//!
//! * `exact`        — local checks + residual polling queries
//! * `conservative` — local checks only, never polls
//! * `table-level`  — commercial middle-tier granularity
//! * `ttl-N`        — Oracle9i-style time-based refresh (no invalidator)
//!
//! Metrics: pages ejected, pure over-invalidation (ejected though content
//! was unchanged), polling load on the DBMS, achieved hit ratio, and
//! observed staleness.
//!
//! ```text
//! cargo run --release -p cacheportal-bench --bin ablation_policies
//! ```

use cacheportal_bench::ablation::{run_workload, FreshnessMode, WorkloadConfig};
use cacheportal_bench::{render_table, write_artifact};

fn main() {
    let modes = [
        FreshnessMode::Exact,
        FreshnessMode::Conservative,
        FreshnessMode::TableLevel,
        FreshnessMode::Ttl { ttl_intervals: 3 },
    ];
    let mut results = Vec::new();
    for mode in modes {
        let config = WorkloadConfig {
            rounds: 40,
            requests_per_round: 40,
            updates_per_round: 12,
            mode,
            ..Default::default()
        };
        results.push(run_workload(&config));
    }

    let mut rows = vec![vec![
        "policy".to_string(),
        "hit ratio".to_string(),
        "ejected".to_string(),
        "over-inval".to_string(),
        "polls".to_string(),
        "stale rounds".to_string(),
        "staleness p95 (us)".to_string(),
    ]];
    for r in &results {
        let over = if r.pages_ejected == 0 {
            "0%".to_string()
        } else {
            format!(
                "{:.0}%",
                r.ejected_unchanged as f64 / r.pages_ejected as f64 * 100.0
            )
        };
        let staleness_p95 = match &r.observability {
            Some(snap) => snap.staleness.commit_to_eject_micros.p95.to_string(),
            None => "-".to_string(),
        };
        rows.push(vec![
            r.mode.clone(),
            format!("{:.2}", r.hit_ratio),
            r.pages_ejected.to_string(),
            over,
            r.polls_issued.to_string(),
            r.stale_page_rounds.to_string(),
            staleness_p95,
        ]);
    }
    println!("Fig E3: invalidation-policy ablation (functional system)\n");
    println!("{}", render_table(&rows));
    println!(
        "Expected shape: exact ejects fewest pages with near-zero over-invalidation\n\
         at the cost of polling; table-level over-invalidates heavily (lower hit\n\
         ratio); the TTL baseline never polls but serves stale pages."
    );
    match write_artifact("ablation_policies", &results) {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
