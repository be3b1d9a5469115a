//! The paper's core safety contract, property-tested through the fuzz
//! harness: **after every synchronization point, no cached page differs
//! from a fresh regeneration** — under generated schemas, generated query
//! types, random interleavings of requests/mutations/transactions/policy
//! flips, every invalidation policy, and every fault class.
//!
//! The hand-written two-table schema this file used to carry lives on as a
//! pinned regression scenario (same tables, same three page families),
//! driven through the same harness runner instead of a private action enum.

use cacheportal_harness::{
    gen_actions, run_scenario, Scenario, ServletGen, ServletKind, TableGen,
};
use proptest::prelude::*;

/// The old fixed-schema case, as a harness scenario: two all-Int tables
/// with indexed group columns and the three original page families
/// (single-table select, join, aggregate).
fn pinned_scenario(policy: u8) -> Scenario {
    let table = |name: &str| TableGen {
        name: name.into(),
        v_type: 0, // Int
        w_type: None,
        indexed: true,
        maintained_index: false,
    };
    Scenario {
        seed: 0xcafe,
        tables: vec![table("r"), table("s")],
        servlets: vec![
            ServletGen { name: "single".into(), kind: ServletKind::Select(0) },
            ServletGen { name: "join".into(), kind: ServletKind::Join(0, 1) },
            ServletGen { name: "agg".into(), kind: ServletKind::Agg(1) },
        ],
        policy,
        fault: Default::default(),
        initial_rows: 25,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SAFETY: for every policy, over generated schemas
    /// and workloads, after a sync point no cached page is stale — the
    /// harness runner asserts the oracle after every sync and once more at
    /// the end, and cross-checks metrics coherence.
    #[test]
    fn no_stale_page_after_sync(
        seed in 0u64..1_000_000,
        policy in 0u8..3,
        n_actions in 30usize..70,
    ) {
        let sc = Scenario::generate(seed).with_policy(policy);
        let actions = gen_actions(&sc, n_actions);
        let outcome = run_scenario(&sc, &actions);
        prop_assert!(
            outcome.violation.is_none(),
            "seed {seed}: {}",
            outcome.violation.unwrap()
        );
    }

    /// SAFETY under failure: same contract with every fault class active —
    /// faults may only over-invalidate, never leave a stale page.
    #[test]
    fn no_stale_page_under_faults(
        seed in 0u64..1_000_000,
        class_pick in 0usize..cacheportal_harness::ALL_CLASSES.len(),
        n_actions in 30usize..60,
    ) {
        let class = cacheportal_harness::ALL_CLASSES[class_pick];
        let sc = Scenario::generate(seed)
            .with_policy((seed % 3) as u8)
            .with_fault(class.spec(seed));
        let actions = gen_actions(&sc, n_actions);
        let outcome = run_scenario(&sc, &actions);
        prop_assert!(
            outcome.violation.is_none(),
            "seed {seed} class {}: {}",
            class.as_str(),
            outcome.violation.unwrap()
        );
    }
}

/// Pinned regression: the original fixed two-table schema, every policy.
#[test]
fn pinned_fixed_schema_stays_fresh() {
    for policy in 0u8..3 {
        let sc = pinned_scenario(policy);
        let actions = gen_actions(&sc, 80);
        let outcome = run_scenario(&sc, &actions);
        assert!(outcome.violation.is_none(), "policy {policy}: {}", outcome.violation.unwrap());
        assert!(outcome.stats.syncs > 0, "the pinned trace must sync");
    }
}

/// LIVENESS/PRECISION: with Exact, a page that survives a sync point is
/// correct AND a page ejected by an insert-only batch truly changed (no
/// over-invalidation for the pinned monotone page families).
#[test]
fn exact_is_precise_for_insert_only_batches() {
    use cacheportal::Served;
    let sc = pinned_scenario(0 /* Exact */);
    let portal = sc.build_portal();

    let grp = 2i64;
    let reqs: Vec<_> = (0..sc.servlets.len()).map(|i| sc.request(i, grp)).collect();
    let mut bodies = Vec::new();
    for req in &reqs {
        bodies.push(portal.request(req).response.body.clone());
    }
    portal.sync_point().unwrap();

    for (i, k, g, n) in [(0usize, 1i64, 2i64, 60i64), (1, 3, 4, 61), (0, 5, 2, 62)] {
        let t = &sc.tables[i % sc.tables.len()];
        portal.update(&t.insert_sql(k, g, n)).unwrap();
    }
    portal.sync_point().unwrap();

    for (req, old_body) in reqs.iter().zip(&bodies) {
        let out = portal.request(req);
        match out.served {
            // Survived in cache: must still be byte-identical.
            Served::CacheHit => assert_eq!(&out.response.body, old_body),
            // Ejected: content must actually differ — insert-only batches
            // on these monotone pages must be precise under Exact.
            Served::Generated => assert_ne!(
                &out.response.body,
                old_body,
                "over-invalidation by insert-only batch"
            ),
        }
    }
    assert!(portal.stale_pages().is_empty());
}
