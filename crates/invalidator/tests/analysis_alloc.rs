//! What a sync point's analysis allocates, counted.
//!
//! `portal_load`'s `join_poll` in one call: a two-table type with `n`
//! registered instances and one `UPDATE` on the join side, where no conjunct
//! is indexable, so every instance is analysed and polled. What the sync
//! point pays per instance is a check of the changed tuple against the
//! type's compiled conjuncts, one residual `SELECT` built as a tree, and one
//! run of it — the instance itself is its parameter slice and nothing is
//! kept for it. (When every instance was a bound copy of the type's `SELECT`
//! held to the end of its shard, this test read 1.9 KB of transient heap and
//! 250 allocations per instance — 1.9, 7.7 and 31 MB at the three sizes
//! below — and the engine tokenised every poll; it reads 51 bytes and 64.)
//!
//! Counted, not timed: the bounds are bytes, blocks and parses.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use cacheportal_db::Database;
use cacheportal_invalidator::{Invalidator, InvalidatorConfig};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::PageKey;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

/// Most bytes the analysing sync point may have live at once beyond what it
/// started with, at every instance count below: one bound, which a bound copy
/// per instance passed at none of them. What still grows with the count is
/// the sorted list of instance handles (16 bytes each) and the poll dedup
/// cache (a key and an answer per distinct poll).
const TRANSIENT_BYTES: usize = 1 << 20;
/// Allocations per analysed instance: a third of the 250 that a bound copy
/// per instance and a parsed poll cost.
const ALLOCATIONS_PER_INSTANCE: f64 = 250.0 / 3.0;

/// `n` products with one inventory row each, and the product page's join
/// registered once per sku.
fn site(n: usize) -> (Database, QiUrlMap) {
    let mut db = Database::new();
    db.execute("CREATE TABLE products (sku INT, name TEXT, price INT, INDEX(sku))")
        .unwrap();
    db.execute("CREATE TABLE inventory (sku INT, warehouse INT, stock INT, INDEX(sku))")
        .unwrap();
    let map = QiUrlMap::new();
    for sku in 0..n {
        db.insert_row(
            "products",
            vec![
                (sku as i64).into(),
                format!("Product {sku}").into(),
                100.into(),
            ],
        )
        .unwrap();
        db.insert_row(
            "inventory",
            vec![(sku as i64).into(), ((sku % 8) as i64).into(), 5.into()],
        )
        .unwrap();
        map.insert(
            &format!(
                "SELECT products.sku, products.name, inventory.stock FROM products, inventory \
                 WHERE products.sku = {sku} AND products.sku = inventory.sku"
            ),
            PageKey::raw(format!("shop/product?g:sku={sku}")),
            "product".into(),
        );
    }
    (db, map)
}

#[test]
fn a_sync_point_holds_one_instance_at_a_time() {
    for n in [1000usize, 4000, 16000] {
        let (mut db, map) = site(n);
        let mut inv = Invalidator::new(InvalidatorConfig::default());
        inv.start_from(db.high_water());
        let registered = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(registered.registered, n as u64);

        db.execute("UPDATE inventory SET stock = 7 WHERE sku = 3")
            .unwrap();
        let parses = db.stats().parses;
        let (report, allocated) = common::measure(|| inv.run_sync_point(&db, &map).unwrap());

        // Every instance was analysed against both delta tuples and polled
        // once (the second tuple's poll is the first one's, answered from
        // the sync point's dedup cache); sku 3's page is ejected at the
        // first tuple, and it alone.
        assert_eq!(report.checked_instances, n as u64);
        assert_eq!(report.tuples_analyzed, 2 * n as u64 - 1);
        assert_eq!(report.polls.issued, n as u64);
        assert_eq!(report.pages, [PageKey::raw("shop/product?g:sku=3")].into());
        assert_eq!(
            db.stats().parses,
            parses,
            "a poll is run from its tree: the engine parses nothing"
        );

        let per_instance = allocated.calls as f64 / n as f64;
        println!(
            "analysis/join_poll/{n}: {per_instance:.1} allocations per analysed instance, \
             {} bytes transient ({:.0} per instance)",
            allocated.transient_peak,
            allocated.transient_peak as f64 / n as f64,
        );
        assert!(
            allocated.transient_peak <= TRANSIENT_BYTES,
            "{n} instances: {} bytes live at once",
            allocated.transient_peak
        );
        assert!(
            per_instance <= ALLOCATIONS_PER_INSTANCE,
            "{n} instances: {per_instance:.1} allocations each"
        );
    }
}
