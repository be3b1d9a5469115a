//! The harness's own acceptance tests: the CI smoke matrix, per-class
//! fault coverage, reproducer round-tripping, and (feature-gated) the
//! canary proving a broken invalidator is actually caught.

use cacheportal_harness::{
    cell_lines, gen_actions, run_scenario, run_scenario_on, sweep, FaultClass, Reproducer,
    Scenario, SweepConfig, ALL_CLASSES,
};
use std::collections::BTreeSet;

/// Acceptance: ≥50 seeds × ≥40 actions, zero staleness violations, with
/// all three policies and every fault class covered;
/// and each cell's accounting equal to the pinned `harness smoke` lines.
/// (Gated off under the canary feature: with invalidation deliberately
/// broken, this matrix is *supposed* to fail — that is the canary test.)
#[cfg(not(feature = "canary"))]
#[test]
fn smoke_matrix_has_zero_staleness_violations() {
    let cfg = SweepConfig::smoke();
    assert!(cfg.seeds >= 50 && cfg.actions >= 40, "smoke config below the floor");

    // The matrix really covers what it claims: policies cycle with the
    // seed, classes with seed mod class-count.
    let mut policies = BTreeSet::new();
    let mut classes = BTreeSet::new();
    for seed in 0..cfg.seeds {
        let (sc, class) = cacheportal_harness::sweep_scenario(seed, &cfg.classes);
        policies.insert(sc.policy);
        classes.insert(class.as_str());
    }
    assert_eq!(policies.len(), 3, "all three policies in the matrix");
    assert_eq!(classes.len(), ALL_CLASSES.len(), "every fault class in the matrix");

    let outcome = sweep(&cfg, None);
    if let Some(repro) = &outcome.failure {
        panic!(
            "smoke violation (shrunk to {} actions): {}\n{}",
            repro.actions.len(),
            repro.violation,
            repro.to_json()
        );
    }
    assert_eq!(outcome.runs, cfg.seeds);
    // And what `harness smoke` prints per cell is pinned, across commits: a
    // change to any run's accounting shows here. Re-pin a deliberate one
    // from `harness smoke`'s output and say why.
    let lines = cell_lines(&outcome.cells);
    let golden = include_str!("golden/smoke.txt");
    assert!(lines == golden, "smoke cells moved from tests/golden/smoke.txt:\n{lines}");
}

/// Every fault class degrades conservatively: zero staleness, and the
/// class's injections demonstrably fired somewhere in the batch (a fault
/// plan that never fires tests nothing). Runs under the Exact policy so
/// polling — the only site poll faults can hit — actually happens.
#[cfg(not(feature = "canary"))]
#[test]
fn every_fault_class_fires_and_stays_fresh() {
    for class in ALL_CLASSES {
        let mut lost = 0u64;
        let mut dup = 0u64;
        let mut faulted = 0u64;
        let mut aborts = 0u64;
        let mut crashes = 0u64;
        let mut gaps = 0u64;
        let mut bus_drops = 0u64;
        let mut bus_dups = 0u64;
        let mut partitions = 0u64;
        let mut reboots = 0u64;
        for seed in 0..10u64 {
            let sc = Scenario::generate(seed)
                .with_policy(0)
                .with_fault(class.spec(seed));
            let actions = gen_actions(&sc, 50);
            let outcome = run_scenario(&sc, &actions);
            assert!(
                outcome.violation.is_none(),
                "class {} seed {seed}: {}",
                class.as_str(),
                outcome.violation.unwrap()
            );
            lost += outcome.stats.records_lost;
            dup += outcome.stats.records_duplicated;
            faulted += outcome.stats.polls_faulted;
            aborts += outcome.stats.txn_aborts;
            crashes += outcome.stats.crashes;
            gaps += outcome.stats.gap_ejected;
            bus_drops += outcome.stats.bus_drops;
            bus_dups += outcome.stats.bus_dups;
            partitions += outcome.stats.edge_partitions;
            reboots += outcome.stats.edge_reboots;
        }
        match class {
            FaultClass::None => {
                assert_eq!(lost + dup + faulted + aborts, 0, "inert class injected something")
            }
            FaultClass::SnifferDrop => assert!(lost > 0, "drop class never dropped"),
            FaultClass::SnifferDup => assert!(dup > 0, "dup class never duplicated"),
            // Reordering has no counter (it permutes, it does not count);
            // the zero-staleness assertion above is the whole check.
            FaultClass::SnifferReorder => {}
            FaultClass::PollError | FaultClass::PollTimeout => {
                assert!(faulted > 0, "{} class never faulted a poll", class.as_str())
            }
            FaultClass::TxnAbort => assert!(aborts > 0, "abort class never aborted"),
            FaultClass::Mixed => assert!(
                lost > 0 && faulted > 0 && aborts > 0,
                "mixed class must hit every site (lost={lost} faulted={faulted} aborts={aborts})"
            ),
            FaultClass::CrashRestart => assert!(
                crashes > 0 && gaps > 0,
                "crash class must crash and force gap ejects (crashes={crashes} gaps={gaps})"
            ),
            FaultClass::PollFlap => assert!(
                faulted > 0,
                "flap class never faulted a poll in a burst window"
            ),
            FaultClass::BusDrop => assert!(bus_drops > 0, "bus-drop class never dropped a delivery"),
            FaultClass::BusReorder => assert!(
                bus_drops > 0 && bus_dups > 0,
                "bus-reorder class must drop and duplicate (drops={bus_drops} dups={bus_dups})"
            ),
            FaultClass::EdgePartition => assert!(
                partitions > 0,
                "edge-partition class never partitioned an edge"
            ),
            FaultClass::EdgeCrashRejoin => assert!(
                reboots > 0,
                "edge-crash-rejoin class never rebooted an edge"
            ),
        }
    }
}

/// The crash-restart class's streams are biased toward a page cached,
/// ejected, admitted again inside a window whose deltas net out, then a
/// crash (`actions.rs`). Recovery used to keep such a page on its first
/// admission's origin; 32 short runs reach it (seed 18 did, at 40 actions),
/// where the unbiased soak needed 130 runs of 160.
#[cfg(not(feature = "canary"))]
#[test]
fn crash_restart_runs_reach_pages_admitted_again_after_an_eject() {
    let cfg = SweepConfig { seeds: 32, actions: 40, classes: vec![FaultClass::CrashRestart] };
    let outcome = sweep(&cfg, None);
    if let Some(repro) = &outcome.failure {
        panic!("{} (shrunk to {} actions)", repro.violation, repro.actions.len());
    }
    let gaps: u64 = outcome.cells.values().map(|c| c.stats.gap_ejected).sum();
    assert!(gaps > 0, "no run crashed with a page to gap-eject");
}

/// A three-node farm is under the same contract as one server: the full
/// oracle (zero staleness at origin and edges, bus degradation, index
/// differential, counter coherence, causal chains) over the fault classes
/// that reach per-node state — each node's query log, the recovery of rows
/// every node mapped, edge mirroring of admissions made through any node.
#[cfg(not(feature = "canary"))]
#[test]
fn three_node_farm_stays_fresh_under_faults() {
    let classes = [
        FaultClass::None,
        FaultClass::SnifferDrop,
        FaultClass::CrashRestart,
        FaultClass::EdgePartition,
        FaultClass::Mixed,
    ];
    let (mut lost, mut fault_ejected, mut crashes, mut gaps, mut partitions) = (0, 0, 0, 0, 0);
    for class in classes {
        // Seeds from 8 on: their plans drop one of the first three records of
        // a query log, and with the misses of a 50-action trace spread over
        // three logs a node rarely gets further than that.
        for seed in 8..14u64 {
            let sc = Scenario::generate(seed)
                .with_policy((seed % 3) as u8)
                .with_fault(class.spec(seed));
            let actions = gen_actions(&sc, 50);
            let outcome = run_scenario_on(&sc, &actions, 3);
            assert!(
                outcome.violation.is_none(),
                "3 nodes, class {} seed {seed}: {}",
                class.as_str(),
                outcome.violation.unwrap()
            );
            lost += outcome.stats.records_lost;
            fault_ejected += outcome.stats.fault_ejected;
            crashes += outcome.stats.crashes;
            gaps += outcome.stats.gap_ejected;
            partitions += outcome.stats.edge_partitions;
        }
    }
    // The faults fired, and the farm answered them the conservative way.
    assert!(lost > 0 && fault_ejected > 0, "lost={lost} fault_ejected={fault_ejected}");
    assert!(crashes > 0 && gaps > 0, "crashes={crashes} gaps={gaps}");
    assert!(partitions > 0, "no edge was ever partitioned");
}

/// Reproducer files are self-contained and replay deterministically: the
/// JSON round-trips losslessly and two runs of the same trace produce the
/// identical outcome (stats and all).
/// Every reproducer under `tests/repros/` is a failure that was found,
/// shrunk and fixed; each must keep replaying clean. Each file still names
/// the violation it reproduced when it was captured.
#[cfg(not(feature = "canary"))]
#[test]
fn committed_reproducers_stay_fixed() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let repro = Reproducer::load(&path).unwrap();
        let outcome = repro.replay();
        assert!(
            outcome.violation.is_none(),
            "{} (captured as {}) fails again: {}",
            path.display(),
            repro.violation,
            outcome.violation.unwrap()
        );
        assert!(outcome.stats.crashes > 0 || repro.scenario.fault.crash_restart == 0.0);
        replayed += 1;
    }
    assert!(replayed > 0, "no reproducer under {}", dir.display());
}

#[test]
fn reproducer_roundtrip_and_determinism() {
    let sc = Scenario::generate(7)
        .with_policy(0)
        .with_fault(FaultClass::Mixed.spec(7));
    let actions = gen_actions(&sc, 60);

    let repro = Reproducer {
        version: cacheportal_harness::repro::REPRO_VERSION,
        scenario: sc.clone(),
        actions: actions.clone(),
        violation: String::new(),
    };
    let parsed = Reproducer::from_json(&repro.to_json()).unwrap();
    assert_eq!(parsed, repro, "JSON round-trip must be lossless");

    let a = run_scenario(&sc, &actions);
    let b = parsed.replay();
    assert_eq!(a, b, "replay must be bit-deterministic");

    // Version gate: a future-format file is rejected, not misread.
    let future = repro.to_json().replacen("\"version\": 1", "\"version\": 99", 1);
    assert!(Reproducer::from_json(&future).is_err());
}

/// The harness catches a deliberately broken invalidator (the feature-gated
/// canary drops every other affected instance) and produces a replayable,
/// shrunk reproducer. Run via `cargo test -p cacheportal-harness
/// --features canary`.
#[cfg(feature = "canary")]
#[test]
fn canary_is_caught_and_shrunk_reproducer_replays() {
    let cfg = SweepConfig {
        seeds: 50,
        actions: 40,
        classes: vec![FaultClass::None],
    };
    let outcome = sweep(&cfg, None);
    let repro = outcome
        .failure
        .expect("a broken invalidator must be caught by the smoke matrix");
    assert!(
        repro.violation.contains("stale-page"),
        "the canary's symptom is staleness: {}",
        repro.violation
    );
    let original = gen_actions(&repro.scenario, cfg.actions);
    assert!(
        repro.actions.len() <= original.len(),
        "shrinking may never grow the trace"
    );
    let replayed = repro.replay();
    assert!(
        replayed.violation.is_some(),
        "the shrunk reproducer must still reproduce"
    );
}
