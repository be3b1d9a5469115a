//! The smoke/soak sweep: many seeds, all policies, every fault class — the
//! matrix the acceptance criteria name. Shared between
//! the `harness` binary, `scripts/verify.sh`, and the crate's own tests.

use crate::actions::gen_actions;
use crate::faults::{FaultClass, ALL_CLASSES};
use crate::gen::{policy_of, Scenario};
use crate::repro::Reproducer;
use crate::runner::{run_scenario, RunStats};
use std::collections::BTreeMap;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of seeds (one full run each).
    pub seeds: u64,
    /// Actions per run.
    pub actions: usize,
    /// Fault classes to cycle through (seed-indexed).
    pub classes: Vec<FaultClass>,
}

impl SweepConfig {
    /// The CI smoke matrix: ≥50 seeds × ≥40 actions, cycling all three
    /// policies and every fault class.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            seeds: 50,
            actions: 40,
            classes: ALL_CLASSES.to_vec(),
        }
    }
}

/// Accounting for one (policy, fault-class) cell of the sweep.
#[derive(Debug, Default, Clone)]
pub struct CellAgg {
    /// Full runs aggregated into this cell.
    pub runs: u64,
    /// Actions driven.
    pub actions: u64,
    /// Folded run accounting.
    pub stats: RunStats,
}

impl CellAgg {
    fn fold(&mut self, actions: usize, s: &RunStats) {
        self.runs += 1;
        self.actions += actions as u64;
        self.stats.requests += s.requests;
        self.stats.cache_hits += s.cache_hits;
        self.stats.syncs += s.syncs;
        self.stats.ejected += s.ejected;
        self.stats.over_invalidations += s.over_invalidations;
        self.stats.fault_ejected += s.fault_ejected;
        self.stats.polls_faulted += s.polls_faulted;
        self.stats.records_lost += s.records_lost;
        self.stats.records_duplicated += s.records_duplicated;
        self.stats.txn_aborts += s.txn_aborts;
        self.stats.crashes += s.crashes;
        self.stats.gap_ejected += s.gap_ejected;
        self.stats.bus_drops += s.bus_drops;
        self.stats.bus_dups += s.bus_dups;
        self.stats.edge_partitions += s.edge_partitions;
        self.stats.edge_reboots += s.edge_reboots;
        self.stats.edge_self_ejections += s.edge_self_ejections;
    }
}

/// Sweep result: per-cell accounting, plus the shrunk reproducer for the
/// first failure (the sweep stops there — one good reproducer beats a pile
/// of correlated ones).
pub struct SweepOutcome {
    /// Completed runs.
    pub runs: u64,
    /// (policy name, fault class name) → accounting.
    pub cells: BTreeMap<(String, String), CellAgg>,
    /// First failure, already shrunk and packaged.
    pub failure: Option<Reproducer>,
}

/// The deterministic scenario for one sweep slot: policy and fault class
/// both cycle with the seed so the matrix is covered evenly.
pub fn sweep_scenario(seed: u64, classes: &[FaultClass]) -> (Scenario, FaultClass) {
    let class = classes[(seed as usize) % classes.len()];
    let sc = Scenario::generate(seed)
        .with_policy((seed % 3) as u8)
        .with_fault(class.spec(seed));
    (sc, class)
}

/// Run the sweep. `progress` (if given) is called after every run.
pub fn sweep(cfg: &SweepConfig, mut progress: Option<&mut dyn FnMut(u64)>) -> SweepOutcome {
    let mut cells: BTreeMap<(String, String), CellAgg> = BTreeMap::new();
    for seed in 0..cfg.seeds {
        let (sc, class) = sweep_scenario(seed, &cfg.classes);
        let actions = gen_actions(&sc, cfg.actions);
        let outcome = run_scenario(&sc, &actions);
        if outcome.violation.is_some() {
            return SweepOutcome {
                runs: seed,
                cells,
                failure: Some(Reproducer::capture(&sc, &actions)),
            };
        }
        let key = (
            policy_of(sc.policy).as_str().to_string(),
            class.as_str().to_string(),
        );
        cells.entry(key).or_default().fold(cfg.actions, &outcome.stats);
        if let Some(p) = progress.as_deref_mut() {
            p(seed + 1);
        }
    }
    SweepOutcome {
        runs: cfg.seeds,
        cells,
        failure: None,
    }
}

/// One line per cell, as `harness smoke` prints them. The smoke matrix's
/// lines are pinned in `tests/golden/smoke.txt`.
pub fn cell_lines(cells: &BTreeMap<(String, String), CellAgg>) -> String {
    let mut out = String::new();
    for ((policy, class), agg) in cells {
        let s = &agg.stats;
        out.push_str(&format!(
            "  {policy:>12} / {class:<15} runs={:<3} syncs={:<5} ejected={:<5} \
             over={:<4} fault_ejected={:<4} polls_faulted={:<4} lost={:<4} aborts={}\n",
            agg.runs,
            s.syncs,
            s.ejected,
            s.over_invalidations,
            s.fault_ejected,
            s.polls_faulted,
            s.records_lost,
            s.txn_aborts,
        ));
    }
    out
}

/// Render the per-cell precision table as GitHub markdown (the EXPERIMENTS
/// table is generated from this).
pub fn markdown_table(cells: &BTreeMap<(String, String), CellAgg>) -> String {
    let mut out = String::from(
        "| policy | fault class | runs | actions | syncs | ejected | over-inv | over-inv % | \
         fault-ejected | polls faulted | records lost | txn aborts | crashes | gap-ejected | \
         bus-drops | edge-partitions | edge-reboots | self-ejections |\n\
         |---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for ((policy, class), agg) in cells {
        let s = &agg.stats;
        let pct = if s.ejected > 0 {
            format!("{:.1}", 100.0 * s.over_invalidations as f64 / s.ejected as f64)
        } else {
            "–".to_string()
        };
        out.push_str(&format!(
            "| {policy} | {class} | {} | {} | {} | {} | {} | {pct} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            agg.runs,
            agg.actions,
            s.syncs,
            s.ejected,
            s.over_invalidations,
            s.fault_ejected,
            s.polls_faulted,
            s.records_lost,
            s.txn_aborts,
            s.crashes,
            s.gap_ejected,
            s.bus_drops,
            s.edge_partitions,
            s.edge_reboots,
            s.edge_self_ejections,
        ));
    }
    out
}
