//! Query-type registration and discovery (§4.1.1–§4.1.2), and the
//! type/instance/page registry.
//!
//! A **query type** is a parameterized SELECT (`$1…$n` markers). A **query
//! instance** is a type plus a bound parameter vector. The registry keeps,
//! per instance, the set of pages whose content depends on it — the
//! invalidator-side view of the QI/URL map, grouped so that updates are
//! processed per *type* rather than per instance (§4.1.2's grouping).

use cacheportal_db::sql::ast::{Expr, Select, Statement, TableRef};
use cacheportal_db::sql::parser::parse;
use cacheportal_db::{Database, DbResult, Value};
use cacheportal_web::{InlineVec, PageKey};
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use crate::analysis::{SchemaProvider, TypeAnalysis};
use crate::delta::DeltaSet;
use crate::predicate_index::{Probe, TypeIndex};

/// Template handles [`Registry::register_typed`] remembers. A site has a
/// handful of servlet templates; past this many the memo starts over.
const HANDLE_MEMO_CAPACITY: usize = 64;

/// Identifier of a registered query type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryTypeId(pub u32);

/// Per-type bookkeeping statistics (§4.1.1's self-tuning inputs).
#[derive(Debug, Default, Clone, Copy)]
pub struct TypeStats {
    /// Instances registered under this type.
    pub instances: u64,
    /// Query-instance registrations observed (frequency proxy).
    pub registrations: u64,
    /// Instance invalidations caused by updates.
    pub invalidations: u64,
    /// Polling queries issued on behalf of this type.
    pub polls: u64,
    /// Update batches that touched this type's tables.
    pub update_batches: u64,
    /// Total wall-clock microseconds spent analyzing this type.
    pub total_analysis_micros: u64,
    /// Worst single-batch analysis time for this type (µs).
    pub max_analysis_micros: u64,
}

impl TypeStats {
    /// Average analysis time per touching batch (µs) — the paper's
    /// "average invalidation time" statistic (§4.1.1).
    pub fn avg_analysis_micros(&self) -> f64 {
        if self.update_batches == 0 {
            0.0
        } else {
            self.total_analysis_micros as f64 / self.update_batches as f64
        }
    }

    /// Record one batch's analysis duration.
    pub fn record_analysis(&mut self, micros: u64) {
        self.total_analysis_micros += micros;
        self.max_analysis_micros = self.max_analysis_micros.max(micros);
    }
}

/// Structural shape of a query type — which invalidation rule family
/// applies (ROADMAP open item 3). Classified once at type-intern time from
/// the parameterized template, so every instance of a type shares its
/// shape. Precedence: Aggregate > TopK > LikeSeek > InList > Conjunctive
/// (a GROUP BY with ORDER BY + LIMIT is judged by the aggregate rule,
/// whose "whole result unchanged" argument subsumes the ordered prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryShape {
    /// Plain select-project-join — the paper's original rule family.
    #[default]
    Conjunctive,
    /// `ORDER BY … LIMIT k`: affected only if an update can enter or
    /// displace the top-k (judged against the tracked boundary value).
    TopK,
    /// GROUP BY / aggregate projection: affected only if the delta
    /// changes some group's aggregate values.
    Aggregate,
    /// WHERE contains a `LIKE` conjunct: conjunctive verdicts, but the
    /// predicate index can seek on the pattern's literal prefix.
    LikeSeek,
    /// WHERE contains an `IN`-list conjunct: conjunctive verdicts, but
    /// the predicate index expands the list into equality probes.
    InList,
}

impl QueryShape {
    /// Stable kebab-ish name used in metrics, scorecards, and bench
    /// records.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryShape::Conjunctive => "conjunctive",
            QueryShape::TopK => "topk",
            QueryShape::Aggregate => "aggregate",
            QueryShape::LikeSeek => "like",
            QueryShape::InList => "in",
        }
    }

    /// Classify a parameterized template.
    pub fn classify(select: &Select) -> QueryShape {
        let is_aggregate = !select.group_by.is_empty()
            || select.items.iter().any(|i| match i {
                cacheportal_db::sql::ast::SelectItem::Expr { expr, .. } => expr.has_aggregate(),
                _ => false,
            });
        if is_aggregate {
            return QueryShape::Aggregate;
        }
        if select.limit.is_some() && !select.order_by.is_empty() {
            return QueryShape::TopK;
        }
        let mut has_like = false;
        let mut has_in = false;
        if let Some(w) = &select.where_clause {
            w.visit(&mut |e| match e {
                Expr::Like { .. } => has_like = true,
                Expr::InList { .. } => has_in = true,
                _ => {}
            });
        }
        if has_like {
            QueryShape::LikeSeek
        } else if has_in {
            QueryShape::InList
        } else {
            QueryShape::Conjunctive
        }
    }
}

/// A registered query type.
#[derive(Debug, Clone)]
pub struct QueryType {
    /// Type identifier.
    pub id: QueryTypeId,
    /// Parameterized SELECT.
    pub select: Select,
    /// Canonical SQL text of `select` (registry key).
    pub sql: String,
    /// Number of `$n` parameters.
    pub n_params: usize,
    /// Lower-cased base-table names read by the query (deduped).
    pub tables: Vec<String>,
    /// Self-tuning statistics.
    pub stats: TypeStats,
    /// When false, pages depending on this type must not be cached
    /// (policy-discovery outcome, §4.1.4).
    pub cacheable: bool,
    /// Structural shape (decides which verdict rule family applies).
    pub shape: QueryShape,
}

impl QueryType {
    /// FROM-list occurrences (a table may appear several times).
    pub fn from_refs(&self) -> &[TableRef] {
        &self.select.from
    }
}

/// The pages depending on one instance. Nearly every instance has exactly
/// one, which is held in place; a hash table is built only for the instance
/// that several pages share.
#[derive(Debug, Default, Clone)]
pub struct PageSet(Pages);

#[derive(Debug, Default, Clone)]
enum Pages {
    #[default]
    None,
    One(PageKey),
    /// Boxed: the table's 48-byte header would otherwise be every
    /// instance's, and is this one's only.
    #[allow(clippy::box_collection)]
    Many(Box<HashSet<PageKey>>),
}

impl PageSet {
    /// Add `page`; true if it was not there.
    pub fn insert(&mut self, page: PageKey) -> bool {
        match &mut self.0 {
            Pages::Many(pages) => return pages.insert(page),
            Pages::One(only) if *only == page => return false,
            _ => {}
        }
        self.0 = match std::mem::take(&mut self.0) {
            Pages::One(only) => Pages::Many(Box::new(HashSet::from([only, page]))),
            _ => Pages::One(page),
        };
        true
    }

    /// Is `page` one of them?
    pub fn contains(&self, page: &PageKey) -> bool {
        match &self.0 {
            Pages::None => false,
            Pages::One(only) => only == page,
            Pages::Many(pages) => pages.contains(page),
        }
    }

    /// The pages, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &PageKey> {
        let (one, many) = match &self.0 {
            Pages::None => (None, None),
            Pages::One(only) => (Some(only), None),
            Pages::Many(pages) => (None, Some(pages.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// How many pages.
    pub fn len(&self) -> usize {
        match &self.0 {
            Pages::None => 0,
            Pages::One(_) => 1,
            Pages::Many(pages) => pages.len(),
        }
    }

    /// True when no page depends on the instance.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One instance's data: the pages depending on it.
#[derive(Debug, Default, Clone)]
pub struct InstanceData {
    /// Pages whose content depends on this instance.
    pub pages: PageSet,
    /// Slot of this instance in its type's predicate index.
    pub(crate) slot: u32,
}

impl InstanceData {
    /// Slot of this instance in its type's predicate index (diagnostics;
    /// equal registries assign equal slots).
    pub fn index_slot(&self) -> u32 {
        self.slot
    }
}

/// O(1) snapshot of the predicate-index bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    /// Live instances interned across all per-type indexes.
    pub entries: u64,
    /// Cumulative wall-clock microseconds spent maintaining the indexes
    /// (an insert per registered instance).
    pub maintenance_micros: u64,
}

/// The registry of types and instances.
#[derive(Debug, Default)]
pub struct Registry {
    types: Vec<QueryType>,
    /// The identity of a type: the canonical text of its template.
    by_sql: HashMap<String, QueryTypeId>,
    /// Templates already looked up in `by_sql`, so that a known type is found
    /// without rendering its text again. Only templates without a literal
    /// are kept: among those, equal ASTs render to equal text (an AST
    /// comparison takes `1` and `1.0` for the same literal, the text does
    /// not).
    by_template: HashMap<Select, QueryTypeId>,
    /// Templates already interned, by the address of the mapper's shared
    /// parse: every instance a mapper makes of one logged statement holds
    /// the same `Arc`, so a known type is found without hashing its tree.
    /// The entry holds the handle, so the address is never reused while it
    /// is here. At most [`HANDLE_MEMO_CAPACITY`], then it starts over (a
    /// statement typed per instance brings a new handle every time).
    by_handle: HashMap<usize, (Arc<Select>, QueryTypeId)>,
    /// Instances per type, by their parameter values; the type's predicate
    /// index holds a clone of the key.
    instances: HashMap<QueryTypeId, HashMap<Arc<[Value]>, InstanceData>>,
    /// Which types read a given (lower-cased) table.
    types_by_table: HashMap<String, Vec<QueryTypeId>>,
    /// Which types have an instance feeding a given page, sorted by id: the
    /// reverse of `instances[..].pages`, kept in step on register.
    /// The one or few types of a page are held in place.
    types_by_page: HashMap<PageKey, InlineVec<QueryTypeId, 3>>,
    /// Per-type predicate index, parallel to `types`.
    indexes: Vec<TypeIndex>,
    /// Per type, parallel to `types`: what the sync point's analysis needs
    /// of `types[i].select`, compiled against the schemas of the sync point
    /// that last touched the type (`None` until one does; an `Err` is the
    /// reason its instances do not bind). See [`Registry::refresh_analysis`].
    analyses: Vec<Option<DbResult<TypeAnalysis>>>,
    /// Cached Σ instance_count — kept in step on register so metrics
    /// snapshots stay O(1) at 1M QIs.
    live_instances: usize,
    /// Index maintenance time, accumulated in nanoseconds (per-insert
    /// costs are sub-microsecond; accumulating micros would truncate to 0).
    index_maintenance_nanos: u64,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a query *type* from parameterized SQL (offline registration,
    /// §4.1.1). Idempotent on canonical text.
    pub fn register_type_sql(&mut self, sql: &str) -> DbResult<QueryTypeId> {
        let stmt = parse(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(cacheportal_db::DbError::Unsupported(
                "query types must be SELECT statements".into(),
            ));
        };
        Ok(self.intern_type(&sel))
    }

    fn intern_type(&mut self, select: &Select) -> QueryTypeId {
        let memoizable = literal_free(select);
        if memoizable {
            if let Some(id) = self.by_template.get(select) {
                return *id;
            }
        }
        let sql = select.to_string();
        let id = match self.by_sql.get(&sql) {
            Some(id) => *id,
            None => self.new_type(select, sql),
        };
        if memoizable {
            self.by_template.insert(select.clone(), id);
        }
        id
    }

    fn new_type(&mut self, select: &Select, sql: String) -> QueryTypeId {
        let id = QueryTypeId(self.types.len() as u32);
        let mut tables: Vec<String> = select
            .from
            .iter()
            .map(|t| t.table.to_ascii_lowercase())
            .collect();
        tables.sort();
        tables.dedup();
        let n_params = {
            let mut n = 0usize;
            if let Some(w) = &select.where_clause {
                for p in w.params() {
                    n = n.max(p);
                }
            }
            n
        };
        for t in &tables {
            self.types_by_table.entry(t.clone()).or_default().push(id);
        }
        self.by_sql.insert(sql.clone(), id);
        self.indexes.push(TypeIndex::plan(select));
        self.analyses.push(None);
        let shape = QueryShape::classify(select);
        self.types.push(QueryType {
            id,
            select: select.clone(),
            sql,
            n_params,
            tables,
            stats: TypeStats::default(),
            cacheable: true,
            shape,
        });
        self.instances.entry(id).or_default();
        id
    }

    /// The type of `template`, found by its handle: a handle seen before
    /// costs one lookup of its address, a new one is interned by its tree
    /// once.
    fn intern_handle(&mut self, template: &Arc<Select>) -> QueryTypeId {
        let address = Arc::as_ptr(template) as usize;
        if let Some((_, id)) = self.by_handle.get(&address) {
            return *id;
        }
        let id = self.intern_type(template);
        if self.by_handle.len() >= HANDLE_MEMO_CAPACITY {
            self.by_handle.clear();
        }
        self.by_handle.insert(address, (template.clone(), id));
        id
    }

    /// Register a query instance given as its type and parameter values:
    /// intern the type by its handle, record the instance and its dependent
    /// page. Every QI/URL map row arrives here in this form. A new instance
    /// is filed under `params` itself — the allocation the caller's clone
    /// shares.
    pub fn register_typed(
        &mut self,
        template: &Arc<Select>,
        params: Arc<[Value]>,
        page: PageKey,
    ) -> QueryTypeId {
        let id = self.intern_handle(template);
        let of_page = self.types_by_page.entry(page.clone()).or_default();
        if let Err(at) = of_page.binary_search(&id) {
            of_page.insert(at, id);
        }
        let ty = &mut self.types[id.0 as usize];
        ty.stats.registrations += 1;
        let tix = &mut self.indexes[id.0 as usize];
        let by_params = self.instances.entry(id).or_default();
        match by_params.entry(params) {
            Entry::Occupied(mut e) => {
                e.get_mut().pages.insert(page);
            }
            Entry::Vacant(e) => {
                ty.stats.instances += 1;
                self.live_instances += 1;
                let t0 = Instant::now();
                let slot = tix.insert(e.key());
                self.index_maintenance_nanos += t0.elapsed().as_nanos() as u64;
                let mut pages = PageSet::default();
                pages.insert(page);
                e.insert(InstanceData { pages, slot });
            }
        }
        id
    }

    /// Type by id.
    pub fn get(&self, id: QueryTypeId) -> &QueryType {
        &self.types[id.0 as usize]
    }

    /// Mutable type access by id.
    pub fn get_mut(&mut self, id: QueryTypeId) -> &mut QueryType {
        &mut self.types[id.0 as usize]
    }

    /// All registered types.
    pub fn types(&self) -> &[QueryType] {
        &self.types
    }

    /// Types whose FROM list includes `table` (lower-cased lookup).
    pub fn types_reading(&self, table: &str) -> &[QueryTypeId] {
        self.types_by_table
            .get(&table.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Instances (param vectors + data) of one type.
    pub fn instances_of(
        &self,
        id: QueryTypeId,
    ) -> impl Iterator<Item = (&Arc<[Value]>, &InstanceData)> {
        self.instances
            .get(&id)
            .into_iter()
            .flat_map(|m| m.iter())
    }

    /// Number of registered instances of one type.
    pub fn instance_count(&self, id: QueryTypeId) -> usize {
        self.instances.get(&id).map(HashMap::len).unwrap_or(0)
    }

    /// Instances across all types. O(1): returns the cached counter
    /// maintained on register (debug builds cross-check it against the
    /// recomputed sum).
    pub fn total_instances(&self) -> usize {
        debug_assert_eq!(
            self.live_instances,
            self.instances.values().map(HashMap::len).sum::<usize>(),
            "cached live-instance counter diverged from the registry"
        );
        self.live_instances
    }

    /// Probe one type's predicate index: map this sync interval's delta
    /// tuples to the instances they can possibly affect, or `Probe::Scan`
    /// when the index cannot narrow the type (residual occurrence touched,
    /// schema drift, missing FROM table).
    pub fn probe_index(&self, id: QueryTypeId, deltas: &DeltaSet, db: &Database) -> Probe {
        let ty = &self.types[id.0 as usize];
        self.indexes[id.0 as usize].probe(&ty.select.from, deltas, db)
    }

    /// Make `id`'s compiled analysis current: compile it if this is the first
    /// sync point to touch the type, or if the schemas it was compiled
    /// against are no longer the catalog's (a table dropped, or dropped and
    /// created again) — which is also how a type that failed to bind gets
    /// another try. A type whose tables stand still is compiled once.
    pub fn refresh_analysis(&mut self, id: QueryTypeId, schemas: &dyn SchemaProvider) {
        let slot = &mut self.analyses[id.0 as usize];
        if !matches!(slot, Some(Ok(compiled)) if compiled.is_current(schemas)) {
            let ty = &self.types[id.0 as usize];
            *slot = Some(TypeAnalysis::new(&ty.select, ty.shape, schemas));
        }
    }

    /// The compiled analysis [`Registry::refresh_analysis`] left for `id`;
    /// `None` if no sync point has touched the type yet.
    pub fn analysis(&self, id: QueryTypeId) -> Option<&DbResult<TypeAnalysis>> {
        self.analyses[id.0 as usize].as_ref()
    }

    /// Whether a type's index is all-residual (probing it always scans).
    pub fn index_fully_residual(&self, id: QueryTypeId) -> bool {
        self.indexes[id.0 as usize].is_fully_residual()
    }

    /// O(1) predicate-index bookkeeping snapshot.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            entries: self.live_instances as u64,
            maintenance_micros: self.index_maintenance_nanos / 1_000,
        }
    }

    /// Pages depending on a specific instance.
    pub fn pages_of(&self, id: QueryTypeId, params: &[Value]) -> Option<&InstanceData> {
        self.instances.get(&id).and_then(|m| m.get(params))
    }

    /// Query types with at least one instance feeding `page`, sorted by id
    /// (deterministic). The reverse of `pages_of`: it answers "which cached
    /// query results does this URL depend on?", which the scorecard board
    /// uses to attribute request-side hit/miss/render-cost tallies, and
    /// admission to ask whether any of them is banned from caching. One map
    /// lookup.
    pub fn types_of_page<Q>(&self, page: &Q) -> &[QueryTypeId]
    where
        PageKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.page(page).map_or(&[], |(_, types)| types)
    }

    /// A page some instance feeds: the registry's own key for it — whoever
    /// holds a clone of that shares the page's one allocation — and
    /// [`Registry::types_of_page`]. `None` for a page no instance feeds.
    pub fn page<Q>(&self, page: &Q) -> Option<(&PageKey, &[QueryTypeId])>
    where
        PageKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (known, types) = self.types_by_page.get_key_value(page)?;
        Some((known, types))
    }
}

/// True when no expression of the template holds a literal.
fn literal_free(select: &Select) -> bool {
    select.exprs().all(|root| {
        let mut clean = true;
        root.visit(&mut |e| clean &= !matches!(e, Expr::Literal(_)));
        clean
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Register an instance given as its bound text, typed as the QI/URL map
    /// types a row that arrives as text.
    fn register(reg: &mut Registry, sql: &str, page: &str) -> (QueryTypeId, Arc<[Value]>) {
        let typed = cacheportal_sniffer::type_text(sql).expect("a SELECT");
        let id = reg.register_typed(&typed.template, typed.params.clone(), PageKey::raw(page));
        (id, typed.params)
    }

    #[test]
    fn discovery_groups_instances_under_one_type() {
        let mut reg = Registry::new();
        let (t1, p1) = register(&mut reg, "SELECT * FROM Car WHERE price < 20000", "p1");
        let (t2, p2) = register(&mut reg, "SELECT * FROM Car WHERE price < 30000", "p2");
        assert_eq!(t1, t2);
        assert_ne!(p1, p2);
        assert_eq!(reg.types().len(), 1);
        assert_eq!(reg.instance_count(t1), 2);
        assert_eq!(reg.get(t1).n_params, 1);
    }

    #[test]
    fn same_instance_twice_adds_pages_not_instances() {
        let mut reg = Registry::new();
        let sql = "SELECT * FROM Car WHERE price < 20000";
        register(&mut reg, sql, "p1");
        let (id, params) = register(&mut reg, sql, "p2");
        assert_eq!(reg.instance_count(id), 1);
        assert_eq!(reg.pages_of(id, &params).unwrap().pages.len(), 2);
        assert_eq!(reg.get(id).stats.registrations, 2);
    }

    #[test]
    fn offline_type_registration_matches_discovery() {
        let mut reg = Registry::new();
        let offline = reg
            .register_type_sql("SELECT * FROM Car WHERE price < $1")
            .unwrap();
        let (discovered, _) = register(&mut reg, "SELECT * FROM Car WHERE price < 42", "p");
        assert_eq!(offline, discovered);
    }

    #[test]
    fn types_by_table_index() {
        let mut reg = Registry::new();
        let join = "SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model";
        register(&mut reg, join, "p");
        register(&mut reg, "SELECT EPA FROM Mileage", "q");
        assert_eq!(reg.types_reading("car").len(), 1);
        assert_eq!(reg.types_reading("MILEAGE").len(), 2);
        assert_eq!(reg.types_reading("other").len(), 0);
    }

    #[test]
    fn types_of_page_is_sorted_reverse_lookup() {
        let mut reg = Registry::new();
        let (t_car, _) = register(&mut reg, "SELECT * FROM Car WHERE price < 20000", "p1");
        let (t_epa, _) = register(&mut reg, "SELECT EPA FROM Mileage", "p1");
        register(&mut reg, "SELECT * FROM Car WHERE price < 30000", "p2");

        let p1_types = reg.types_of_page(&PageKey::raw("p1"));
        assert_eq!(p1_types, vec![t_car.min(t_epa), t_car.max(t_epa)]);
        assert_eq!(reg.types_of_page(&PageKey::raw("p2")), vec![t_car]);
        assert!(reg.types_of_page(&PageKey::raw("p3")).is_empty());
    }

    #[test]
    fn shapes_classify_by_template_structure() {
        let mut reg = Registry::new();
        let cases = [
            ("SELECT * FROM Car WHERE price < 20000", QueryShape::Conjunctive),
            (
                "SELECT model FROM Car WHERE maker = 'T' ORDER BY price DESC LIMIT 3",
                QueryShape::TopK,
            ),
            (
                "SELECT maker, COUNT(*) FROM Car GROUP BY maker ORDER BY maker",
                QueryShape::Aggregate,
            ),
            // Aggregate wins over TopK when both apply.
            (
                "SELECT maker, COUNT(*) FROM Car GROUP BY maker ORDER BY maker LIMIT 2",
                QueryShape::Aggregate,
            ),
            ("SELECT * FROM Car WHERE model LIKE 'Civ%'", QueryShape::LikeSeek),
            ("SELECT * FROM Car WHERE maker IN ('T', 'H')", QueryShape::InList),
            // LIKE wins over IN.
            (
                "SELECT * FROM Car WHERE model LIKE 'C%' AND maker IN ('T')",
                QueryShape::LikeSeek,
            ),
            // LIMIT without ORDER BY stays conjunctive (no boundary rule).
            ("SELECT * FROM Car LIMIT 5", QueryShape::Conjunctive),
        ];
        for (sql, want) in cases {
            let (id, _) = register(&mut reg, sql, "p");
            assert_eq!(reg.get(id).shape, want, "shape of {sql}");
        }
    }

    #[test]
    fn non_select_rejected() {
        let mut reg = Registry::new();
        assert!(reg.register_type_sql("DELETE FROM Car").is_err());
    }
}
