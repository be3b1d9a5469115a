//! What a statement allocates, counted: the storefront's four servlet queries
//! run as a pooled connection runs them, from a statement it keeps prepared
//! (each after its first execution, which parses and plans it), and its
//! 40-statement bulk load of 8 000 rows, parse and execute together. The
//! counts are allocator calls (`alloc` + `realloc`), which repeat exactly
//! from run to run where times do not. A cached statement that re-does
//! per-statement work on every execution, a literal copied through a bind
//! and an eval, or a row copied into the update log twice shows here first.

#[path = "../../core/tests/common/mod.rs"]
mod common;
mod storefront;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

use cacheportal_db::Value;

/// Allocator calls per execution of each servlet query, in
/// `storefront::SERVLETS` order. The result rows alone take most of them:
/// one block per row plus one per string cell, plus the column names.
const QUERY_BUDGET: [usize; 4] = [20, 95, 35, 15];
/// Allocator calls for the whole bulk load.
const BULK_LOAD_BUDGET: usize = 36_000;

#[test]
fn storefront_statements_allocate_within_budget() {
    let statements = storefront::bulk_load(1);
    let mut db = storefront::empty_database();
    let ((), load) = common::measure(|| {
        for sql in &statements {
            db.execute(sql).expect("storefront rows");
        }
    });
    assert_eq!(db.high_water(), 2 * storefront::SKUS as u64);
    println!(
        "bulk load: {} allocations for {} rows ({:.2} per row)",
        load.calls,
        2 * storefront::SKUS,
        load.calls as f64 / (2 * storefront::SKUS) as f64
    );
    assert!(
        load.calls <= BULK_LOAD_BUDGET,
        "bulk load: {} allocations",
        load.calls
    );

    let param = [Value::Int(7)];
    for ((name, _, sql), budget) in storefront::SERVLETS.iter().zip(QUERY_BUDGET) {
        let mut stmt = db.prepare(sql).expect("statement parses");
        let first = db.query_prepared(&mut stmt, &param).expect("query runs");
        assert_eq!(db.query_with_params(sql, &param).expect("query runs"), first);
        let counts: Vec<usize> = (0..3)
            .map(|_| {
                let (result, allocated) = common::measure(|| {
                    db.query_prepared(&mut stmt, &param).expect("query runs")
                });
                assert_eq!(result, first);
                allocated.calls
            })
            .collect();
        println!("{name}: {} allocations per query", counts[0]);
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{name}: counts differ between runs: {counts:?}"
        );
        assert!(counts[0] <= budget, "{name}: {} allocations", counts[0]);
    }
}
