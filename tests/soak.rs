//! Soak tests: sustained load through harness-generated schemas.
//!
//! 1. A four-node farm under concurrent readers, a writer mixing
//!    single statements and transactions, and a synchronizer — schema,
//!    servlets, and workload all produced by the harness generators —
//!    followed by a full-system freshness audit.
//! 2. A single-portal generative soak: longer seeded traces with the mixed
//!    fault class active, through the harness runner's full oracle.

use cacheportal::{CachePortal, Served};
use cacheportal_harness::{gen_actions, run_scenario, Action, FaultClass, Scenario};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A seed whose generated scenario exercises the farm well: picked (and
/// pinned) for having several tables and at least two servlets including a
/// join. The assertions below re-check those properties so a generator
/// change cannot silently hollow out the test.
const CLUSTER_SEED: u64 = 25;

fn cluster_scenario() -> Scenario {
    let sc = Scenario::generate(CLUSTER_SEED);
    assert!(sc.tables.len() >= 2, "pinned seed must generate a multi-table schema");
    assert!(sc.servlets.len() >= 2, "pinned seed must generate several page families");
    sc
}

#[test]
fn cluster_soak_under_concurrent_load() {
    let sc = Arc::new(cluster_scenario());
    let farm = Arc::new(CachePortal::builder(sc.build_database()).nodes(4).build().unwrap());
    for s in &sc.servlets {
        farm.register_servlet(s.build(&sc.tables));
    }
    // The mutation half of a generated trace is the writer's script.
    let script: Vec<Action> = gen_actions(&sc, 600)
        .into_iter()
        .filter(|a| matches!(a, Action::Mutate(_) | Action::Txn(_)))
        .collect();
    assert!(script.len() >= 100, "the generated trace must carry real write load");

    let served = AtomicU64::new(0);
    let hits = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Six reader threads across the generated page families.
        for t in 0..6u64 {
            let farm = Arc::clone(&farm);
            let sc = Arc::clone(&sc);
            let served = &served;
            let hits = &hits;
            scope.spawn(move || {
                for i in 0..200u64 {
                    let servlet = ((i + t) % sc.servlets.len() as u64) as usize;
                    let g = ((i * 7 + t) % cacheportal_harness::gen::GROUPS as u64) as i64;
                    let out = farm.request(&sc.request(servlet, g));
                    assert_eq!(out.response.status.code(), 200, "no 5xx under load");
                    served.fetch_add(1, Ordering::Relaxed);
                    if out.served == Served::CacheHit {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // A writer replaying the generated mutation script.
        {
            let farm = Arc::clone(&farm);
            let sc = Arc::clone(&sc);
            let script = &script;
            scope.spawn(move || {
                for action in script {
                    match action {
                        Action::Mutate(s) => {
                            farm.update(&s.sql(&sc)).unwrap();
                        }
                        Action::Txn(stmts) => farm
                            .update_txn(|tx| {
                                for s in stmts {
                                    tx.execute(&s.sql(&sc))?;
                                }
                                Ok(())
                            })
                            .unwrap(),
                        _ => unreachable!("filtered to mutations"),
                    }
                }
            });
        }
        // Synchronizer.
        {
            let farm = Arc::clone(&farm);
            scope.spawn(move || {
                for _ in 0..40 {
                    farm.sync_point().unwrap();
                    std::thread::yield_now();
                }
            });
        }
    });

    assert_eq!(served.load(Ordering::Relaxed), 1200);
    assert!(hits.load(Ordering::Relaxed) > 100, "cache did real work");

    // Freshness audit after the final sync.
    farm.sync_point().unwrap();
    assert!(
        farm.stale_pages().is_empty(),
        "soak must end with a fully fresh cache"
    );
    // Load was spread across all four nodes.
    let loads = farm.node_loads();
    assert!(loads.iter().all(|&l| l > 0), "every node served: {loads:?}");
}

/// Single-portal generative soak: longer traces than the smoke matrix,
/// with every fault site active at once, through the full oracle.
#[test]
fn generative_soak_with_mixed_faults() {
    for seed in 100..106u64 {
        let sc = Scenario::generate(seed)
            .with_policy_workers((seed % 3) as u8, if seed % 2 == 0 { 4 } else { 1 })
            .with_fault(FaultClass::Mixed.spec(seed));
        let actions = gen_actions(&sc, 250);
        let outcome = run_scenario(&sc, &actions);
        assert!(
            outcome.violation.is_none(),
            "seed {seed}: {}",
            outcome.violation.unwrap()
        );
        assert!(outcome.stats.syncs >= 10, "a 250-action trace must sync often");
    }
}
