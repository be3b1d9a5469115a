//! The fixed storefront site every workload runs against, and the seeded
//! generators for its inputs: table contents, the URL universe in popularity
//! order, the Zipf request sampler and the backend's update statements.
//!
//! Everything here is a pure function of `--seed`; the portal only ever sees
//! the generated inputs.

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::web::{
    HttpRequest, PageKey, ParamSource, QueryTemplate, Servlet, ServletSpec, SqlServlet,
};
use std::sync::Arc;

/// Rows in `products` and in `inventory` (one inventory row per sku).
pub const SKUS: usize = 4000;
/// Product categories; every category holds `SKUS / CATEGORIES` products.
pub const CATEGORIES: usize = 100;
/// Host name of every generated request.
const HOST: &str = "shop";

/// splitmix64: small, seedable, and identical on every platform, so a seed
/// names one exact input set.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the site data,
    /// the popularity ranking and each thread's request sequence are
    /// independent draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Build and fill the storefront database.
pub fn build_database(seed: u64) -> Database {
    let mut rng = Rng::new(seed, 1);
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE products (sku INT, name TEXT, category INT, price INT, \
         INDEX(sku), INDEX(category))",
    )
    .expect("products DDL");
    db.execute("CREATE TABLE inventory (sku INT, warehouse INT, stock INT, INDEX(sku))")
        .expect("inventory DDL");
    // Multi-row inserts, 200 rows per statement: set-up time should measure
    // the engine's insert path, not 8000 statement parses.
    for chunk in (0..SKUS).collect::<Vec<_>>().chunks(200) {
        let products: Vec<String> = chunk
            .iter()
            .map(|&sku| {
                let price = 100 + rng.below(9900);
                format!("({sku},'Product {sku}',{},{price})", sku % CATEGORIES)
            })
            .collect();
        db.execute(&format!(
            "INSERT INTO products VALUES {}",
            products.join(",")
        ))
        .expect("products rows");
        let inventory: Vec<String> = chunk
            .iter()
            .map(|&sku| format!("({sku},{},{})", sku % 8, rng.below(500)))
            .collect();
        db.execute(&format!(
            "INSERT INTO inventory VALUES {}",
            inventory.join(",")
        ))
        .expect("inventory rows");
    }
    db
}

/// The four servlets, one per query shape the invalidator tells apart.
pub const SERVLETS: [&str; 4] = ["product", "catalog", "top", "stats"];

/// Index into [`SERVLETS`] of the servlet serving `path` (`/product` → 0).
pub fn servlet_index(path: &str) -> usize {
    SERVLETS
        .iter()
        .position(|s| path.strip_prefix('/') == Some(s))
        .expect("generated requests only name the four servlets")
}

/// Instantiate the four servlets.
pub fn servlets() -> Vec<Arc<dyn Servlet>> {
    let one = |name: &str, title: &str, param: &str, sql: &str| -> Arc<dyn Servlet> {
        Arc::new(SqlServlet::new(
            ServletSpec::new(name).with_key_get_params(&[param]),
            title,
            vec![QueryTemplate::new(
                sql,
                vec![ParamSource::Get(param.into(), ColType::Int)],
            )],
        ))
    };
    vec![
        // Join: an update to `inventory` has no indexable conjunct, so every
        // registered instance is analysed and polled (paper section 4).
        one(
            "product",
            "Product",
            "sku",
            "SELECT products.sku, products.name, products.price, inventory.warehouse, \
             inventory.stock FROM products, inventory \
             WHERE products.sku = $1 AND products.sku = inventory.sku",
        ),
        // Conjunctive select, about 40 rows.
        one(
            "catalog",
            "Catalog",
            "category",
            "SELECT sku, name, price FROM products WHERE category = $1 ORDER BY price, sku",
        ),
        // Top-k: the invalidator's boundary rule applies.
        one(
            "top",
            "Top sellers",
            "category",
            "SELECT sku, name, price FROM products WHERE category = $1 \
             ORDER BY price DESC LIMIT 10",
        ),
        // Aggregate: the value-preserving rule applies.
        one(
            "stats",
            "Category statistics",
            "category",
            "SELECT COUNT(*), SUM(price) FROM products WHERE category = $1",
        ),
    ]
}

/// One page of the site: the request that produces it and its cache key.
#[derive(Debug, Clone)]
pub struct Page {
    /// The pre-built request.
    pub request: HttpRequest,
    /// Canonical cache key (what `CachePortal::request` computes).
    pub key: PageKey,
    /// Index into [`SERVLETS`].
    pub servlet: usize,
}

fn page(servlet: usize, param: &str, value: usize, specs: &[Arc<dyn Servlet>]) -> Page {
    let request = HttpRequest::get(
        HOST,
        &format!("/{}", SERVLETS[servlet]),
        &[(param, &value.to_string())],
    );
    let key = PageKey::for_request(&request, specs[servlet].spec());
    Page {
        request,
        key,
        servlet,
    }
}

/// Ranks per popularity block: 40 product pages and one page of each of
/// the other three servlets, at fixed offsets.
const BLOCK: usize = SKUS / CATEGORIES + 3;
const BLOCK_OFFSETS: [usize; 3] = [10, 21, 32];

/// The whole URL universe (4300 pages) in popularity order: index 0 is the
/// most requested page. Which sku or category holds a rank is a seeded
/// shuffle; which *servlet* holds it is fixed (every block of 43 ranks has
/// its catalog, top and stats page at the same offsets), so the mix of page
/// shapes at every popularity level, and with it the mean page size and
/// generation cost a Zipf reader sees, is the same for every seed.
pub fn universe(seed: u64) -> Vec<Page> {
    let specs = servlets();
    let mut rng = Rng::new(seed, 2);
    let mut shuffled = |n: usize| {
        let mut ids: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ids);
        ids.into_iter()
    };
    let mut skus = shuffled(SKUS);
    let mut categories = [
        shuffled(CATEGORIES),
        shuffled(CATEGORIES),
        shuffled(CATEGORIES),
    ];
    (0..SKUS + 3 * CATEGORIES)
        .map(
            |rank| match BLOCK_OFFSETS.iter().position(|&o| o == rank % BLOCK) {
                Some(i) => page(
                    i + 1,
                    "category",
                    categories[i].next().expect("one per block"),
                    &specs,
                ),
                None => page(0, "sku", skus.next().expect("forty per block"), &specs),
            },
        )
        .collect()
}

/// The `/product` pages for skus `0..n` only (the `join_poll` working set),
/// in seeded popularity order.
pub fn product_pages(seed: u64, n: usize) -> Vec<Page> {
    let specs = servlets();
    let mut pages: Vec<Page> = (0..n).map(|sku| page(0, "sku", sku, &specs)).collect();
    Rng::new(seed, 2).shuffle(&mut pages);
    pages
}

/// Zipf sampler over ranks `0..n` with exponent `s`: inverse-CDF lookup by
/// binary search, so a draw costs one uniform and about `log2 n` compares.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `count` draws, as page indices a reader walks through (and wraps).
    pub fn sequence(&self, rng: &mut Rng, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.sample(rng) as u32).collect()
    }
}

/// Which column the backend's updates rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// `UPDATE products SET price = … WHERE sku = …`: index-answerable.
    Price,
    /// `UPDATE inventory SET stock = … WHERE sku = …`: lands on the join
    /// side without an indexable conjunct.
    Stock,
}

/// The `n`-th update statement of a run: a pure function of the seed, so
/// the backend's schedule is byte-identical for a seed.
pub fn update_statements(seed: u64, kind: UpdateKind, skus: usize, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 3);
    (0..count)
        .map(|_| {
            let sku = rng.below(skus as u64);
            match kind {
                UpdateKind::Price => format!(
                    "UPDATE products SET price = {} WHERE sku = {sku}",
                    100 + rng.below(9900)
                ),
                UpdateKind::Stock => format!(
                    "UPDATE inventory SET stock = {} WHERE sku = {sku}",
                    rng.below(500)
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sequence_repeats_for_a_seed_and_differs_across_seeds() {
        let z = Zipf::new(4300, 1.0);
        let a = z.sequence(&mut Rng::new(7, 10), 5000);
        let b = z.sequence(&mut Rng::new(7, 10), 5000);
        let c = z.sequence(&mut Rng::new(8, 10), 5000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&i| (i as usize) < 4300));
        // Rank 0 is the most popular: with s = 1 over 4300 ranks it draws
        // about 1/H(4300) = 11% of the samples.
        let top = a.iter().filter(|&&i| i == 0).count();
        assert!((400..750).contains(&top), "rank 0 drew {top} of 5000");
    }

    #[test]
    fn update_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = update_statements(7, UpdateKind::Price, SKUS, 100);
        assert_eq!(a, update_statements(7, UpdateKind::Price, SKUS, 100));
        assert_ne!(a, update_statements(8, UpdateKind::Price, SKUS, 100));
        assert!(a[0].starts_with("UPDATE products SET price = "));
        let s = update_statements(7, UpdateKind::Stock, 1000, 100);
        assert!(s
            .iter()
            .all(|sql| sql.starts_with("UPDATE inventory SET stock = ")));
    }

    #[test]
    fn universe_is_a_seeded_permutation_of_4300_distinct_pages() {
        let u = universe(3);
        assert_eq!(u.len(), SKUS + 3 * CATEGORIES);
        let mut keys: Vec<&str> = u.iter().map(|p| p.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), u.len());
        let same: Vec<String> = universe(3).iter().map(|p| p.key.to_string()).collect();
        assert_eq!(
            same,
            u.iter().map(|p| p.key.to_string()).collect::<Vec<_>>()
        );
        let other = universe(4);
        assert_ne!(other[0].key, u[0].key);
        // Another seed moves pages between ranks but never changes which
        // servlet a rank belongs to.
        assert!(u.iter().zip(&other).all(|(a, b)| a.servlet == b.servlet));
        assert_eq!(u.iter().take(BLOCK).filter(|p| p.servlet != 0).count(), 3);
    }

    #[test]
    fn every_servlet_answers_from_the_generated_database() {
        use cacheportal::web::{shared, DbConnection};
        let db = shared(build_database(1));
        let specs = servlets();
        for p in universe(1).iter().take(200) {
            let mut conn = DbConnection::new(db.clone());
            let body = specs[p.servlet]
                .handle(&p.request, &mut conn)
                .expect("page renders");
            assert!(body.contains("<html"), "{body}");
            assert_eq!(servlet_index(&p.request.path), p.servlet);
        }
    }
}
