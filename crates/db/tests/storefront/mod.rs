//! The benchmark storefront as the database sees it: its two tables, the 40
//! multi-row INSERT statements that load them (200 rows each, built from the
//! same seeded generator and in the same order as `portal_load` builds them)
//! and the four servlet queries. Shared by the counting tests
//! (`statement_alloc.rs`, the web crate's `render_alloc.rs`) and `bench_db`,
//! which include this file by `#[path]`.

#![allow(dead_code)]

use cacheportal_db::Database;

/// Rows in `products` and in `inventory`.
pub const SKUS: usize = 4000;
/// Product categories; each holds `SKUS / CATEGORIES` products.
pub const CATEGORIES: usize = 100;

/// The two tables, as `portal_load` creates them.
pub const DDL: [&str; 2] = [
    "CREATE TABLE products (sku INT, name TEXT, category INT, price INT, \
     INDEX(sku), INDEX(category))",
    "CREATE TABLE inventory (sku INT, warehouse INT, stock INT, INDEX(sku))",
];

/// The four servlets: name, page title and the query they run with their one
/// parameter (`sku` for `product`, `category` for the rest).
pub const SERVLETS: [(&str, &str, &str); 4] = [
    (
        "product",
        "Product",
        "SELECT products.sku, products.name, products.price, inventory.warehouse, \
         inventory.stock FROM products, inventory \
         WHERE products.sku = $1 AND products.sku = inventory.sku",
    ),
    (
        "catalog",
        "Catalog",
        "SELECT sku, name, price FROM products WHERE category = $1 ORDER BY price, sku",
    ),
    (
        "top",
        "Top sellers",
        "SELECT sku, name, price FROM products WHERE category = $1 \
         ORDER BY price DESC LIMIT 10",
    ),
    (
        "stats",
        "Category statistics",
        "SELECT COUNT(*), SUM(price) FROM products WHERE category = $1",
    ),
];

/// splitmix64, seeded per stream exactly as `portal_load`'s `Rng`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.below(1);
        r
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// The bulk load: for each block of 200 skus, one `INSERT INTO products` and
/// one `INSERT INTO inventory` statement.
pub fn bulk_load(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let skus: Vec<usize> = (0..SKUS).collect();
    let mut out = Vec::new();
    for chunk in skus.chunks(200) {
        let products: Vec<String> = chunk
            .iter()
            .map(|&sku| {
                let price = 100 + rng.below(9900);
                format!("({sku},'Product {sku}',{},{price})", sku % CATEGORIES)
            })
            .collect();
        out.push(format!(
            "INSERT INTO products VALUES {}",
            products.join(",")
        ));
        let inventory: Vec<String> = chunk
            .iter()
            .map(|&sku| format!("({sku},{},{})", sku % 8, rng.below(500)))
            .collect();
        out.push(format!(
            "INSERT INTO inventory VALUES {}",
            inventory.join(",")
        ));
    }
    out
}

/// The two tables, empty.
pub fn empty_database() -> Database {
    let mut db = Database::new();
    for ddl in DDL {
        db.execute(ddl).expect("storefront DDL");
    }
    db
}

/// The storefront, loaded.
pub fn database(seed: u64) -> Database {
    let mut db = empty_database();
    for sql in bulk_load(seed) {
        db.execute(&sql).expect("storefront rows");
    }
    db
}
