//! Scenario generation: random schemas, query types, and servlet specs.
//!
//! A [`Scenario`] is everything about a fuzz run except the action stream:
//! 1–5 tables with mixed column types and optional maintained indexes,
//! 1–4 servlets whose queries range over single-table selects, projections,
//! joins, multi-conjunct predicates, aggregates, top-k (ORDER BY + LIMIT),
//! grouped aggregates, LIKE-prefix and IN-list shapes, an initial
//! invalidation policy, an invalidator worker count, and a fault plan. Scenarios are
//! fully serializable so a reproducer file is self-contained — replay never
//! depends on the generator staying bit-identical across versions.

use cacheportal::cache::{PageCache, PageCacheConfig};
use cacheportal::db::schema::ColType;
use cacheportal::db::{Database, FaultPlan, FaultSpec};
use cacheportal::invalidator::{InvalidationPolicy, InvalidatorConfig};
use cacheportal::web::{
    HttpRequest, ParamSource, QueryTemplate, Servlet, ServletSpec, SharedDb, SqlServlet,
};
use cacheportal::{CachePortal, CachePortalBuilder};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// Serializable stand-in for [`ColType`] (the db crate's enum does not
/// derive serde; the wire code is stable by construction).
pub const COL_INT: u8 = 0;
/// Float column code.
pub const COL_FLOAT: u8 = 1;
/// Text column code.
pub const COL_STR: u8 = 2;

/// SQL type name for a wire column code.
fn col_sql(code: u8) -> &'static str {
    match code % 3 {
        COL_INT => "INT",
        COL_FLOAT => "FLOAT",
        _ => "TEXT",
    }
}

/// Render the `n`-th deterministic literal of a column type.
pub fn literal(code: u8, n: i64) -> String {
    match code % 3 {
        COL_INT => n.to_string(),
        COL_FLOAT => format!("{n}.25"),
        _ => format!("'s{n}'"),
    }
}

/// One generated table. Every table has the fixed backbone `k INT`
/// (join attribute), `g INT` (page-selection attribute), and `v` of a
/// random type; half also carry a second payload column `w`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableGen {
    /// Table name (`t0`..`t4`).
    pub name: String,
    /// Wire code of the `v` column's type.
    pub v_type: u8,
    /// Wire code of the optional `w` column's type.
    pub w_type: Option<u8>,
    /// Declare `INDEX(k)` on the table itself.
    pub indexed: bool,
    /// Maintain a join-attribute index on `k` inside the invalidator.
    pub maintained_index: bool,
}

impl TableGen {
    /// `CREATE TABLE` statement for this table.
    pub fn create_sql(&self) -> String {
        let mut cols = format!("k INT, g INT, v {}", col_sql(self.v_type));
        if let Some(w) = self.w_type {
            cols.push_str(&format!(", w {}", col_sql(w)));
        }
        if self.indexed {
            cols.push_str(", INDEX(k)");
        }
        format!("CREATE TABLE {} ({cols})", self.name)
    }

    /// `INSERT` statement for a row keyed `(k, g)` with payload ordinal `n`.
    pub fn insert_sql(&self, k: i64, g: i64, n: i64) -> String {
        let mut vals = format!("{k}, {g}, {}", literal(self.v_type, n));
        if let Some(w) = self.w_type {
            vals.push_str(&format!(", {}", literal(w, n + 1)));
        }
        format!("INSERT INTO {} VALUES ({vals})", self.name)
    }

    /// `UPDATE` statement rewriting `v` for one group.
    pub fn update_sql(&self, g: i64, n: i64) -> String {
        format!(
            "UPDATE {} SET v = {} WHERE g = {g}",
            self.name,
            literal(self.v_type, n)
        )
    }

    /// `DELETE` statement removing one group.
    pub fn delete_sql(&self, g: i64) -> String {
        format!("DELETE FROM {} WHERE g = {g}", self.name)
    }
}

/// Query shape behind one generated servlet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServletKind {
    /// Full-width single-table select: `WHERE g = $1`.
    Select(usize),
    /// Projection of a column subset of one table.
    Project(usize),
    /// Multi-conjunct single-table select: `WHERE g = $1 AND v < c`
    /// (generated only for tables whose `v` is an Int).
    SelectFiltered(usize, i64),
    /// Equi-join on `k` between two distinct tables, selected by the first
    /// table's `g`.
    Join(usize, usize),
    /// Join plus a residual conjunct `a.v < c` (first table's `v` is Int).
    JoinFiltered(usize, usize, i64),
    /// `COUNT(*), SUM(k)` over one table's group.
    Agg(usize),
    /// Top-k page: `ORDER BY v DESC LIMIT n` over one table's group —
    /// exercises the invalidator's boundary rule (ties included: `v`
    /// literals repeat, and ties must stay conservative).
    TopK(usize, usize),
    /// Grouped aggregate page: `g, COUNT(*), SUM(k) … GROUP BY g ORDER BY
    /// g` below a group threshold — exercises the value-preserving rule.
    AggGroup(usize),
    /// LIKE-prefix page over a TEXT `v` column: the request's `g` value is
    /// spliced into the pattern `s{g}%` — exercises the LikePrefix index
    /// tier (v literals are `s0`…`s49`, so `s1%` matches `s1`,`s10`…).
    Like(usize),
    /// IN-list page: `g IN ($1, c1, c2)` with two scenario-fixed extra
    /// groups — exercises the InSet index tier.
    InList(usize, i64, i64),
}

impl ServletKind {
    /// The table whose `g` column the page's parameter selects on.
    pub(crate) fn table(&self) -> usize {
        match *self {
            ServletKind::Select(i)
            | ServletKind::Project(i)
            | ServletKind::SelectFiltered(i, _)
            | ServletKind::Join(i, _)
            | ServletKind::JoinFiltered(i, _, _)
            | ServletKind::Agg(i)
            | ServletKind::TopK(i, _)
            | ServletKind::AggGroup(i)
            | ServletKind::Like(i)
            | ServletKind::InList(i, _, _) => i,
        }
    }
}

/// One generated servlet: a name and the query shape it serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServletGen {
    /// Servlet (and URL path) name, `p0`..`p3`.
    pub name: String,
    /// The query shape.
    pub kind: ServletKind,
}

impl ServletGen {
    /// The parameterized SQL this servlet issues (`$1` = the `g` param).
    pub fn sql(&self, tables: &[TableGen]) -> String {
        match &self.kind {
            ServletKind::Select(i) => {
                let t = &tables[*i].name;
                format!("SELECT k, g, v FROM {t} WHERE g = $1 ORDER BY k, v")
            }
            ServletKind::Project(i) => {
                let t = &tables[*i].name;
                format!("SELECT v FROM {t} WHERE g = $1 ORDER BY v")
            }
            ServletKind::SelectFiltered(i, c) => {
                let t = &tables[*i].name;
                format!("SELECT k, v FROM {t} WHERE g = $1 AND v < {c} ORDER BY k, v")
            }
            ServletKind::Join(a, b) => {
                let (ta, tb) = (&tables[*a].name, &tables[*b].name);
                format!(
                    "SELECT {ta}.v, {tb}.v FROM {ta}, {tb} \
                     WHERE {ta}.k = {tb}.k AND {ta}.g = $1 ORDER BY {ta}.k"
                )
            }
            ServletKind::JoinFiltered(a, b, c) => {
                let (ta, tb) = (&tables[*a].name, &tables[*b].name);
                format!(
                    "SELECT {ta}.v, {tb}.v FROM {ta}, {tb} \
                     WHERE {ta}.k = {tb}.k AND {ta}.g = $1 AND {ta}.v < {c} \
                     ORDER BY {ta}.k"
                )
            }
            ServletKind::Agg(i) => {
                let t = &tables[*i].name;
                format!("SELECT COUNT(*), SUM(k) FROM {t} WHERE g = $1")
            }
            ServletKind::TopK(i, n) => {
                let t = &tables[*i].name;
                format!("SELECT k, g, v FROM {t} WHERE g = $1 ORDER BY v DESC LIMIT {n}")
            }
            ServletKind::AggGroup(i) => {
                let t = &tables[*i].name;
                format!(
                    "SELECT g, COUNT(*), SUM(k) FROM {t} WHERE g < $1 \
                     GROUP BY g ORDER BY g"
                )
            }
            ServletKind::Like(i) => {
                let t = &tables[*i].name;
                format!("SELECT k, g, v FROM {t} WHERE v LIKE $1 ORDER BY k, g, v")
            }
            ServletKind::InList(i, c1, c2) => {
                let t = &tables[*i].name;
                format!("SELECT k, v FROM {t} WHERE g IN ($1, {c1}, {c2}) ORDER BY k, v")
            }
        }
    }

    /// Instantiate the servlet for registration on a portal.
    pub fn build(&self, tables: &[TableGen]) -> Arc<dyn Servlet> {
        let params = match &self.kind {
            // The LIKE pattern carries the group ordinal as its literal
            // prefix; everything else binds `g` directly.
            ServletKind::Like(_) => {
                vec![ParamSource::GetPattern("g".into(), "s{}%".into())]
            }
            _ => vec![ParamSource::Get("g".into(), ColType::Int)],
        };
        Arc::new(SqlServlet::new(
            ServletSpec::new(&self.name).with_key_get_params(&["g"]),
            &format!("Fuzz page {}", self.name),
            vec![QueryTemplate::new(&self.sql(tables), params)],
        ))
    }
}

/// Everything about a fuzz run except the action stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Seed this scenario (and its initial rows) derive from.
    pub seed: u64,
    /// Generated tables, in creation order.
    pub tables: Vec<TableGen>,
    /// Generated servlets.
    pub servlets: Vec<ServletGen>,
    /// Initial default policy: 0 = Exact, 1 = Conservative, 2 = TableLevel.
    pub policy: u8,
    /// Invalidator analysis workers (1..8).
    pub workers: usize,
    /// Fault-injection plan (inert by default).
    pub fault: FaultSpec,
    /// Initial rows per table.
    pub initial_rows: usize,
}

/// Decode a policy code (used for the initial policy and for flip actions).
pub fn policy_of(code: u8) -> InvalidationPolicy {
    match code % 3 {
        0 => InvalidationPolicy::Exact,
        1 => InvalidationPolicy::Conservative,
        _ => InvalidationPolicy::TableLevel,
    }
}

/// Number of distinct `g` groups actions range over. Small on purpose:
/// collisions between cached pages and updates are the whole point.
pub const GROUPS: i64 = 6;
/// Number of distinct `k` join keys.
pub const KEYS: i64 = 8;
/// Edge caches attached behind the bus when the plan has bus fault sites.
pub const BUS_EDGES: usize = 2;

impl Scenario {
    /// Generate the scenario for `seed` (inert fault plan).
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce7_a810_c0ff_ee00);
        let n_tables = rng.gen_range(1..=5usize);
        let tables: Vec<TableGen> = (0..n_tables)
            .map(|i| TableGen {
                name: format!("t{i}"),
                v_type: rng.gen_range(0..3u8),
                w_type: if rng.gen_bool(0.5) {
                    Some(rng.gen_range(0..3u8))
                } else {
                    None
                },
                indexed: rng.gen_bool(0.5),
                maintained_index: rng.gen_bool(0.4),
            })
            .collect();

        let n_servlets = rng.gen_range(1..=4usize);
        let servlets: Vec<ServletGen> = (0..n_servlets)
            .map(|i| ServletGen {
                name: format!("p{i}"),
                kind: gen_kind(&mut rng, &tables),
            })
            .collect();

        Scenario {
            seed,
            tables,
            servlets,
            policy: rng.gen_range(0..3u8),
            workers: [1usize, 1, 2, 4, 8][rng.gen_range(0..5usize)],
            fault: FaultSpec::default(),
            initial_rows: rng.gen_range(0..30usize),
        }
    }

    /// Same scenario with a fault plan installed.
    pub fn with_fault(mut self, fault: FaultSpec) -> Scenario {
        self.fault = fault;
        self
    }

    /// Same scenario pinned to a policy and worker count (smoke-matrix use).
    pub fn with_policy_workers(mut self, policy: u8, workers: usize) -> Scenario {
        self.policy = policy % 3;
        self.workers = workers;
        self
    }

    /// Build and seed the database (tables + deterministic initial rows).
    pub fn build_database(&self) -> Database {
        let mut db = Database::new();
        for t in &self.tables {
            db.execute(&t.create_sql()).expect("generated CREATE TABLE must parse");
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0da7_a5ee_d000_0001);
        for _ in 0..self.initial_rows {
            let t = &self.tables[rng.gen_range(0..self.tables.len())];
            let (k, g, n) = (
                rng.gen_range(0..KEYS),
                rng.gen_range(0..GROUPS),
                rng.gen_range(0..50i64),
            );
            db.execute(&t.insert_sql(k, g, n)).expect("generated INSERT must parse");
        }
        db
    }

    /// Apply the scenario's policy, worker count, maintained indexes, and
    /// the run's fault plan and node count to a builder (shared by every
    /// assembly path). The node count belongs to the run, not the scenario:
    /// one scenario must stay fresh on a farm of any size.
    fn configure(
        &self,
        mut builder: CachePortalBuilder,
        plan: FaultPlan,
        nodes: usize,
    ) -> CachePortalBuilder {
        let mut cfg = InvalidatorConfig::default();
        cfg.policy.default_policy = policy_of(self.policy);
        cfg.workers = self.workers;
        // Every harness run doubles as an index-vs-scan differential test:
        // the invalidator re-analyzes each sync with the predicate index
        // disabled and the runner flags any affected-set divergence.
        cfg.index_differential = true;
        builder = builder.invalidator_config(cfg).fault_plan(plan).nodes(nodes);
        for t in &self.tables {
            if t.maintained_index {
                builder = builder.maintain_index(&t.name, "k");
            }
        }
        builder
    }

    /// Register every generated servlet on a freshly assembled portal.
    fn register(&self, portal: &CachePortal) {
        for s in &self.servlets {
            portal.register_servlet(s.build(&self.tables));
        }
        self.attach_edges(portal);
    }

    /// Attach [`BUS_EDGES`] edge caches behind the invalidation bus — but
    /// only when the plan actually exercises bus fault sites, so every
    /// pre-existing fault class replays bit-identically without edges.
    /// Registration order is deterministic (`edge-0`, `edge-1`), which is
    /// what lets a recovered portal re-register edges under the same names
    /// the journaled watermarks were persisted against.
    fn attach_edges(&self, portal: &CachePortal) {
        if self.fault.has_bus_faults() {
            for _ in 0..BUS_EDGES {
                portal.register_edge_cache(Arc::new(PageCache::new(PageCacheConfig::default())));
            }
        }
    }

    /// Assemble the full one-node portal: database, servlets, policy,
    /// workers, fault plan, and maintained indexes.
    pub fn build_portal(&self) -> CachePortal {
        self.build_farm(1)
    }

    /// [`Scenario::build_portal`] over a farm of `nodes` servers.
    pub fn build_farm(&self, nodes: usize) -> CachePortal {
        let db = self.build_database();
        let plan = FaultPlan::new(self.fault.clone());
        let portal = self
            .configure(CachePortal::builder(db), plan, nodes)
            .build()
            .expect("generated scenario must assemble");
        self.register(&portal);
        portal
    }

    /// Crash-mode assembly: the database is shared (it outlives the portal,
    /// like a real DBMS outlives a crashed cache server) and the QI/URL map
    /// plus sync cursor are journaled to `dir` so the runner can kill the
    /// portal mid-trace and [`Scenario::recover_portal`] it.
    pub fn build_portal_durable(
        &self,
        db: SharedDb,
        dir: &Path,
        plan: FaultPlan,
        nodes: usize,
    ) -> CachePortal {
        let portal = self
            .configure(CachePortal::builder_shared(db), plan, nodes)
            .durable(dir)
            .checkpoint_interval(3)
            .build()
            .expect("generated scenario must assemble");
        self.register(&portal);
        portal
    }

    /// Rebuild a crashed portal from its durable directory. The page cache
    /// is the surviving one (a cache tier outlives the portal process);
    /// recovery conservatively ejects anything admitted in the durability
    /// gap.
    pub fn recover_portal(
        &self,
        db: SharedDb,
        cache: Arc<PageCache>,
        dir: &Path,
        plan: FaultPlan,
        nodes: usize,
    ) -> CachePortal {
        let portal = self
            .configure(CachePortal::builder_shared(db), plan, nodes)
            .durable(dir)
            .checkpoint_interval(3)
            .surviving_cache(cache)
            .recover()
            .expect("recovery from the durable journal must assemble");
        self.register(&portal);
        portal
    }

    /// The request hitting servlet `idx` (mod the servlet count) for group
    /// `g`.
    pub fn request(&self, idx: usize, g: i64) -> HttpRequest {
        let s = &self.servlets[idx % self.servlets.len()];
        HttpRequest::get("fuzz", &format!("/{}", s.name), &[("g", &g.to_string())])
    }
}

/// Pick one query shape over the generated tables.
fn gen_kind(rng: &mut StdRng, tables: &[TableGen]) -> ServletKind {
    let i = rng.gen_range(0..tables.len());
    let int_v = tables[i].v_type % 3 == COL_INT;
    let str_v = tables[i].v_type % 3 == COL_STR;
    let roll = rng.gen_range(0..10u8);
    match roll {
        0 => ServletKind::Select(i),
        1 => ServletKind::Project(i),
        2 if int_v => ServletKind::SelectFiltered(i, rng.gen_range(5..45i64)),
        3 | 4 if tables.len() > 1 => {
            let mut j = rng.gen_range(0..tables.len() - 1);
            if j >= i {
                j += 1; // distinct second table
            }
            if roll == 4 && int_v {
                ServletKind::JoinFiltered(i, j, rng.gen_range(5..45i64))
            } else {
                ServletKind::Join(i, j)
            }
        }
        5 => ServletKind::Agg(i),
        6 => ServletKind::TopK(i, rng.gen_range(1..4usize)),
        7 => ServletKind::AggGroup(i),
        8 if str_v => ServletKind::Like(i),
        9 => ServletKind::InList(i, rng.gen_range(0..GROUPS), rng.gen_range(0..GROUPS)),
        _ => ServletKind::Agg(i),
    }
}
