//! The invalidation decision algorithm (paper Example 4.1, §4.2.2).
//!
//! Given a query type, one instance's parameter values and one delta tuple
//! of one FROM-list occurrence, decide whether the instance's result can be
//! affected:
//!
//! 1. Substitute the tuple's values for that occurrence's columns throughout
//!    the WHERE clause.
//! 2. Conjuncts left with **no** column references are decided locally; if
//!    any is false, the tuple cannot affect the result (*no impact*, no DB
//!    access needed — the `(Mitsubishi, Eclipse, 20000)` case).
//! 3. If conjuncts referencing the **other** tables remain, build the
//!    *residual polling query* over those tables (the `PollQuery` of the
//!    paper); a non-empty result means the instance is affected.
//! 4. With no other tables (single-table query) the decision is immediate.
//!
//! Everything that does not depend on the instance is worked out once per
//! query *type* ([`TypeAnalysis`]): the FROM list's binding context and, per
//! WHERE conjunct of the parameterised text, which occurrences it references.
//! An instance is its parameter slice; what a sync point pays for one is a
//! predicate check on the changed tuple and, for a join, one poll.
//!
//! Soundness note (beyond the paper): when several correlated deletes land
//! in one synchronization batch, a residual poll against the *post-batch*
//! state can miss join partners that were deleted in the same batch. The
//! orchestrator therefore treats `poll == 0` as *affected* whenever any
//! other table referenced by the residual had deletions this batch (see
//! [`PollingQuery::other_tables`]). This only over-invalidates.

use crate::delta::TableDelta;
use crate::query_type::QueryShape;
use cacheportal_db::error::{DbError, DbResult};
use cacheportal_db::eval::{bind, BindContext};
use cacheportal_db::schema::SchemaRef;
use cacheportal_db::sql::ast::{AggFunc, Expr, Select, SelectItem, TableRef};
use cacheportal_db::table::Row;
use cacheportal_db::{Database, Value};
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::sync::Arc;

/// Source of table schemas (the invalidator's view of the DB catalog).
pub trait SchemaProvider {
    /// Schema of `table`, if it exists.
    fn schema_of(&self, table: &str) -> Option<SchemaRef>;
}

impl SchemaProvider for cacheportal_db::table::Catalog {
    fn schema_of(&self, table: &str) -> Option<SchemaRef> {
        self.get(table).map(|t| t.schema().clone())
    }
}

impl SchemaProvider for cacheportal_db::Database {
    fn schema_of(&self, table: &str) -> Option<SchemaRef> {
        self.catalog().schema_of(table)
    }
}

/// A residual polling query awaiting execution.
///
/// It carries the `SELECT` it was built as: the index answer, the
/// correlated-delete guard and the engine all work from that tree, so a poll
/// is never rendered to text and parsed back. Its text ([`PollingQuery::sql`])
/// is rendered where it is shown — a verdict's detail, a fault message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollingQuery {
    /// `SELECT COUNT(*) FROM <others> WHERE <residual>` — non-empty ⇔ the
    /// instance is affected.
    select: Select,
    /// Lower-cased names of the tables the poll reads (for the correlated-
    /// delete guard and for maintained-index answering). One list per type
    /// and occurrence, shared by every poll built from them.
    pub other_tables: Arc<[String]>,
    /// Structural dedup key: the `DefaultHasher` hash of the canonical poll
    /// SQL, computed once at construction. The per-sync-point dedup cache
    /// and the fault plan key on this instead of the text, so neither
    /// renders or hashes it again. The SQL is a deterministic rendering of
    /// the tree, so equal polls always share a key. The converse holds only
    /// up to a 64-bit hash collision: two different polls that collide
    /// share one cached answer, affirmative or negative, within a sync
    /// point.
    pub key: u64,
}

/// Feeds rendered SQL to a hasher as it is written, so that hashing a poll's
/// text builds no `String`.
struct HashText(DefaultHasher);

impl fmt::Write for HashText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

impl HashText {
    /// What `text.hash(&mut DefaultHasher::new())` followed by `finish()`
    /// gives for the text written so far: `str`'s `Hash` writes its bytes
    /// and then `0xff`, and the hasher works on the byte stream however it
    /// is cut into writes.
    fn finish(mut self) -> u64 {
        self.0.write_u8(0xff);
        self.0.finish()
    }
}

impl PollingQuery {
    /// A poll built as a tree. Its key is the hash of its canonical text —
    /// `DefaultHasher` with its fixed initial state, stable across threads
    /// and runs, which the deterministic shard merge relies on — computed by
    /// streaming the rendering into the hasher.
    pub fn new(select: Select, other_tables: impl Into<Arc<[String]>>) -> Self {
        let mut text = HashText(DefaultHasher::new());
        write!(text, "{select}").expect("hashing cannot fail");
        PollingQuery {
            select,
            other_tables: other_tables.into(),
            key: text.finish(),
        }
    }

    /// The poll's `SELECT`.
    pub fn select(&self) -> &Select {
        &self.select
    }

    /// The poll's SQL text, rendered now (`Display` writes the same).
    pub fn sql(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for PollingQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.select.fmt(f)
    }
}

/// Decision for one (instance, occurrence, tuple).
// Returned and matched at once: boxing the poll would be one more allocation
// per analysed tuple to save a copy of a value that is about to be consumed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TupleImpact {
    /// The tuple cannot affect this instance's result.
    NoImpact,
    /// The instance is affected; no polling required.
    Affected,
    /// Run the polling query to decide.
    NeedsPoll(PollingQuery),
}

/// Decision for one (instance, occurrence, tuple *batch*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchImpact {
    /// No tuple in the batch can affect the instance.
    NoImpact,
    /// Affected without polling.
    Affected,
    /// Affected iff any of these polls is non-empty.
    NeedsPolls(Vec<PollingQuery>),
}

/// Occurrence mask of a conjunct that could not be classified (a column
/// that fails to resolve, an occurrence index ≥ 64): it is walked for every
/// occurrence, so its error surfaces where the tuple meets it.
const UNCLASSIFIED: u64 = u64::MAX;

/// One WHERE conjunct of the parameterised text, classified once per type.
#[derive(Debug)]
struct TypeConjunct {
    expr: Expr,
    /// Bit i set ⇔ the conjunct references FROM occurrence i; or
    /// [`UNCLASSIFIED`].
    occ_mask: u64,
    /// Any column reference at all (false ⇒ constant once the parameters
    /// are given).
    has_columns: bool,
}

impl TypeConjunct {
    fn new(expr: &Expr, ctx: &BindContext) -> TypeConjunct {
        let columns = expr.columns();
        let mut mask = 0u64;
        for c in &columns {
            match ctx.resolve(c) {
                Ok((t, _)) if t < 64 => mask |= 1 << t,
                _ => mask = UNCLASSIFIED,
            }
        }
        TypeConjunct {
            expr: expr.clone(),
            occ_mask: mask,
            has_columns: !columns.is_empty(),
        }
    }
}

/// How one conjunct meets a delta tuple of one occurrence.
enum Meets {
    /// No column: true or false once the parameters are given.
    Constant,
    /// Every column is the occurrence's: a check on the tuple alone.
    Local,
    /// No column is the occurrence's: goes into the residual, parameters
    /// filled in.
    Elsewhere,
    /// Columns of the occurrence and of others: substituted, then residual.
    Joins,
    /// Unclassified, or an occurrence the mask has no bit for: substituted,
    /// then whichever of the above the result turns out to be.
    Unknown,
}

/// What a sync point needs of a query type, compiled once: the FROM list's
/// binding context, the WHERE conjuncts classified by the occurrences they
/// reference, and the shape rule's plan. An instance of the type is its
/// parameter slice; nothing here is copied for one.
///
/// Built against the schemas of one moment; [`TypeAnalysis::is_current`]
/// says whether they are still the catalog's.
#[derive(Debug)]
pub struct TypeAnalysis {
    from: Vec<TableRef>,
    ctx: BindContext,
    /// Per occurrence, the context of that table alone: what a
    /// [`Meets::Local`] conjunct binds against to read the tuple directly.
    alone: Vec<BindContext>,
    /// Per occurrence, [`PollingQuery::other_tables`] of its polls.
    other_tables: Vec<Arc<[String]>>,
    conjuncts: Vec<TypeConjunct>,
    /// Highest `$n` of the WHERE clause, the projection and ORDER BY: an
    /// instance with fewer values does not bind.
    max_param: usize,
    /// The boundary rule's plan, for a [`QueryShape::TopK`] type it fits.
    pub(crate) topk: Option<TopKPlan>,
    /// The value-preserving rule's plan, for a [`QueryShape::Aggregate`]
    /// type it fits.
    pub(crate) agg: Option<AggSpec>,
}

impl TypeAnalysis {
    /// Compile `select` (a parameterised template, or a statement without
    /// markers) against the current schemas. Fails when a FROM table is
    /// unknown.
    pub fn new(
        select: &Select,
        shape: QueryShape,
        schemas: &dyn SchemaProvider,
    ) -> DbResult<TypeAnalysis> {
        let mut tables = Vec::with_capacity(select.from.len());
        for tref in &select.from {
            let schema = schemas
                .schema_of(&tref.table)
                .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
            tables.push((tref.binding().to_string(), schema));
        }
        let alone = tables
            .iter()
            .map(|t| BindContext::new(vec![t.clone()]))
            .collect();
        let ctx = BindContext::new(tables);
        let other_tables = if select.from.len() == 1 {
            Vec::new() // single-table polls are never built
        } else {
            (0..select.from.len())
                .map(|occurrence| {
                    let mut others: Vec<String> = select
                        .from
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != occurrence)
                        .map(|(_, t)| t.table.to_ascii_lowercase())
                        .collect();
                    others.sort();
                    others.dedup();
                    others.into()
                })
                .collect()
        };
        let conjuncts = match &select.where_clause {
            Some(w) => w
                .conjuncts()
                .into_iter()
                .map(|c| TypeConjunct::new(c, &ctx))
                .collect(),
            None => Vec::new(),
        };
        // The clauses `substitute_params` binds (a marker in HAVING stays).
        let max_param = select
            .where_clause
            .iter()
            .chain(select.items.iter().filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            }))
            .chain(select.order_by.iter().map(|k| &k.expr))
            .flat_map(|e| e.params())
            .max()
            .unwrap_or(0);
        Ok(TypeAnalysis {
            topk: (shape == QueryShape::TopK)
                .then(|| topk_plan(select, schemas))
                .flatten(),
            agg: (shape == QueryShape::Aggregate)
                .then(|| agg_spec(select, schemas))
                .flatten(),
            from: select.from.clone(),
            ctx,
            alone,
            other_tables,
            conjuncts,
            max_param,
        })
    }

    /// Are the schemas this was compiled against still the ones `schemas`
    /// hands out? (The same allocations: a table dropped and created again
    /// has a new one, whatever its columns.)
    pub fn is_current(&self, schemas: &dyn SchemaProvider) -> bool {
        self.from.iter().zip(&self.ctx.tables).all(|(tref, (_, known))| {
            schemas
                .schema_of(&tref.table)
                .is_some_and(|now| Arc::ptr_eq(&now, known))
        })
    }

    /// The FROM list (a table may occur several times).
    pub fn from_refs(&self) -> &[TableRef] {
        &self.from
    }

    /// Does an instance with these values bind? The error is the one
    /// substituting them into the type would report.
    pub fn check_params(&self, params: &[Value]) -> DbResult<()> {
        if self.max_param > params.len() {
            return Err(DbError::UnboundParameter(self.max_param));
        }
        Ok(())
    }

    /// Analyze one delta tuple against one occurrence of its table, for the
    /// instance binding `params`.
    pub fn analyze_tuple(
        &self,
        params: &[Value],
        occurrence: usize,
        tuple: &Row,
    ) -> DbResult<TupleImpact> {
        match self.tuple_residual(params, occurrence, tuple)? {
            None => Ok(TupleImpact::NoImpact),
            Some(residual) if self.from.len() == 1 => {
                debug_assert!(residual.is_empty(), "single-table residual impossible");
                Ok(TupleImpact::Affected)
            }
            Some(residual) => Ok(TupleImpact::NeedsPoll(
                self.build_poll(occurrence, Expr::conjoin(residual)),
            )),
        }
    }

    /// Analyze a *batch* of delta tuples against one occurrence at once —
    /// §4.2.1's grouped update processing. Tuples failing their local checks
    /// are dropped; the survivors' residuals are OR-combined into a single
    /// polling query (`(res₁) OR (res₂) OR …`): the instance is affected iff
    /// any survivor's residual is satisfiable, so one poll decides the batch.
    ///
    /// `max_or_terms` chunks pathological batches; each chunk yields one poll.
    /// Returns the per-batch decision plus how many tuples survived locally.
    pub fn analyze_tuple_batch(
        &self,
        params: &[Value],
        occurrence: usize,
        tuples: &[Row],
        max_or_terms: usize,
    ) -> DbResult<(BatchImpact, usize)> {
        debug_assert!(max_or_terms > 0);
        let mut residuals: Vec<Expr> = Vec::new();
        let mut survivors = 0usize;
        for tuple in tuples {
            let Some(residual) = self.tuple_residual(params, occurrence, tuple)? else {
                continue;
            };
            survivors += 1;
            if self.from.len() == 1 {
                return Ok((BatchImpact::Affected, survivors));
            }
            match Expr::conjoin(residual) {
                Some(residual) => residuals.push(residual),
                // Unconstrained join: other tables' non-emptiness decides;
                // this dominates any OR.
                None => {
                    return Ok((
                        BatchImpact::NeedsPolls(vec![self.build_poll(occurrence, None)]),
                        survivors,
                    ))
                }
            }
        }
        if residuals.is_empty() {
            return Ok((
                if survivors > 0 {
                    BatchImpact::Affected
                } else {
                    BatchImpact::NoImpact
                },
                survivors,
            ));
        }
        let mut polls = Vec::with_capacity(residuals.len().div_ceil(max_or_terms));
        let mut residuals = residuals.into_iter();
        while let Some(first) = residuals.next() {
            let ored = residuals
                .by_ref()
                .take(max_or_terms - 1)
                .fold(first, |a, b| Expr::Or(Box::new(a), Box::new(b)));
            polls.push(self.build_poll(occurrence, Some(ored)));
        }
        Ok((BatchImpact::NeedsPolls(polls), survivors))
    }

    fn meets(&self, conjunct: &TypeConjunct, occurrence: usize) -> Meets {
        if conjunct.occ_mask == UNCLASSIFIED || occurrence >= 64 {
            return Meets::Unknown;
        }
        let bit = 1u64 << occurrence;
        if !conjunct.has_columns {
            Meets::Constant
        } else if conjunct.occ_mask == bit {
            Meets::Local
        } else if conjunct.occ_mask & bit == 0 {
            Meets::Elsewhere
        } else {
            Meets::Joins
        }
    }

    /// Local-check + substitution core shared by single and batched analysis:
    /// `None` = tuple ruled out locally; `Some(residual conjuncts)` otherwise.
    /// The conjuncts are met in the order they are written, so the first one
    /// that fails — or that does not bind — decides.
    fn tuple_residual(
        &self,
        params: &[Value],
        occurrence: usize,
        tuple: &Row,
    ) -> DbResult<Option<Vec<Expr>>> {
        self.check_params(params)?;
        let nothing = BindContext::new(vec![]);
        let mut residual: Vec<Expr> = Vec::new();
        for conjunct in &self.conjuncts {
            let holds = match self.meets(conjunct, occurrence) {
                Meets::Constant => bind(&conjunct.expr, &nothing, params)?.eval_predicate(&[]),
                // Bound against the occurrence's table alone, the conjunct
                // reads the tuple where it lies: nothing is substituted.
                Meets::Local => {
                    bind(&conjunct.expr, &self.alone[occurrence], params)?.eval_predicate(&[tuple])
                }
                Meets::Elsewhere => {
                    residual.push(substitute(&conjunct.expr, params, None)?);
                    continue;
                }
                Meets::Joins => {
                    let at = Some((&self.ctx, occurrence, tuple));
                    residual.push(substitute(&conjunct.expr, params, at)?);
                    continue;
                }
                Meets::Unknown => {
                    let at = Some((&self.ctx, occurrence, tuple));
                    let substituted = substitute(&conjunct.expr, params, at)?;
                    if has_columns(&substituted) {
                        residual.push(substituted);
                        continue;
                    }
                    bind(&substituted, &nothing, &[])?.eval_predicate(&[])
                }
            };
            if !holds {
                return Ok(None);
            }
        }
        Ok(Some(residual))
    }

    /// Build `SELECT COUNT(*) FROM <others> WHERE <residual>`.
    ///
    /// `ORDER BY`/`LIMIT` from the instance are intentionally absent: this
    /// poll only asks whether matching rows *exist*, and its cardinality is
    /// clause-independent. TopK instances additionally get a boundary poll
    /// ([`TopKPlan`]) that does carry the original clause.
    fn build_poll(&self, occurrence: usize, residual: Option<Expr>) -> PollingQuery {
        debug_assert!(self.from.len() > 1, "single-table polls never built");
        let poll = Select {
            distinct: false,
            items: vec![SelectItem::Expr {
                expr: Expr::Agg {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                },
                alias: None,
            }],
            from: self
                .from
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != occurrence)
                .map(|(_, t)| t.clone())
                .collect(),
            where_clause: residual,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        PollingQuery::new(poll, self.other_tables[occurrence].clone())
    }
}

/// A copy of `e` with every `$n` replaced by `params[n-1]` and, given
/// `at = (ctx, occurrence, tuple)`, every column of that FROM occurrence by
/// the tuple's value; other columns are left intact (with their
/// qualification). The caller has checked that `params` covers the markers.
fn substitute(
    e: &Expr,
    params: &[Value],
    at: Option<(&BindContext, usize, &Row)>,
) -> DbResult<Expr> {
    // Resolve first so ambiguity errors surface as errors, not silence.
    let err: std::cell::RefCell<Option<DbError>> = std::cell::RefCell::new(None);
    let out = e.transform(&|node| match (node, at) {
        (Expr::Param(i), _) => Some(Expr::Literal(params[*i - 1].clone())),
        (Expr::Column(c), Some((ctx, occurrence, tuple))) => match ctx.resolve(c) {
            Ok((t, col)) if t == occurrence => Some(Expr::Literal(tuple[col].clone())),
            Ok(_) => None,
            Err(e) => {
                *err.borrow_mut() = Some(e);
                None
            }
        },
        _ => None,
    });
    match err.into_inner() {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Does the expression still reference any column?
fn has_columns(e: &Expr) -> bool {
    !e.columns().is_empty()
}

/// The boundary rule's plan for one TopK type: which column bounds the
/// result, in which direction, and the *boundary poll* that re-derives the
/// k-th row's key.
///
/// Unlike the residual `COUNT(*)` polls of [`TypeAnalysis`] — which
/// correctly drop `ORDER BY`/`LIMIT` because a count's cardinality does not
/// depend on them — the boundary poll **carries the type's original
/// `ORDER BY … LIMIT k` clause verbatim**: it must return exactly the
/// bounded, ordered result prefix so the k-th row is the real boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKPlan {
    /// Schema position of the first ORDER BY key column.
    pub order_col: usize,
    /// Sort direction of the first key (`false` = DESC).
    pub ascending: bool,
    /// `LIMIT k`.
    pub k: usize,
    /// `SELECT <first-order-key> FROM … WHERE … ORDER BY … LIMIT k`, with the
    /// type's `$n` markers: run with an instance's values as its parameters.
    pub poll: Select,
}

/// What a shape rule made of one instance and its table's delta.
#[derive(Debug)]
pub(crate) enum RuleOutcome {
    /// No delta tuple can change the instance's result.
    Unaffected,
    /// The rule kept the instance where the conventional check would eject
    /// it.
    Kept,
    /// The rule proved the instance affected; the detail says how.
    Affected(String),
    /// The rule cannot decide the instance: the conventional path does.
    HandOn,
}

/// What a shape rule counted on its way to a [`RuleOutcome`], in the sync
/// report's terms.
#[derive(Debug, Default)]
pub(crate) struct RuleWork {
    /// Delta tuples analysed.
    pub(crate) tuples_analyzed: u64,
    /// Decisions taken without a poll.
    pub(crate) local_decisions: u64,
    /// Boundary polls run.
    pub(crate) boundary_polls: u64,
}

impl TopKPlan {
    /// The boundary rule for one instance of `ty`, on `db` as it stands
    /// after the batch. The boundary is the first ORDER BY key of the k-th
    /// row of the instance's result, which the plan's boundary poll returns;
    /// a short result or a failed poll has none, and the instance is handed
    /// on. A delta tuple whose key sorts strictly beyond the boundary can
    /// neither enter the top-k (it sorts after k surviving rows) nor
    /// displace it (the post-state top-k rows all pre-existed the batch, and
    /// the engine's ORDER BY breaks key ties by full row content, so their
    /// relative order is a pure function of the row set) — whether or not
    /// the tuple matches the WHERE clause. Ties and missing keys stay
    /// conservative: a tuple that lands at or inside the boundary and
    /// matches locally makes the instance affected, and one that needs a
    /// poll hands it on.
    pub(crate) fn decide(
        &self,
        ty: &TypeAnalysis,
        params: &[Value],
        delta: &TableDelta,
        db: &Database,
        work: &mut RuleWork,
    ) -> DbResult<RuleOutcome> {
        use std::cmp::Ordering;
        work.boundary_polls += 1;
        let boundary = match db.query_select(&self.poll, params) {
            Ok(res) if res.rows.len() == self.k => {
                res.rows.into_iter().last().and_then(|row| row.into_iter().next())
            }
            _ => None,
        };
        let Some(boundary) = boundary else {
            return Ok(RuleOutcome::HandOn);
        };
        // Strictly beyond the boundary in sort direction, under the engine's
        // own comparator (`Value::cmp`, same as its ORDER BY).
        let beyond = |tuple: &Row| {
            tuple.get(self.order_col).is_some_and(|key| match key.cmp(&boundary) {
                Ordering::Greater => self.ascending,
                Ordering::Less => !self.ascending,
                Ordering::Equal => false,
            })
        };
        let mut used_boundary = false;
        for (tuple, is_insert) in delta.tuples() {
            work.tuples_analyzed += 1;
            match ty.analyze_tuple(params, 0, tuple)? {
                TupleImpact::NoImpact => work.local_decisions += 1,
                _ if beyond(tuple) => {
                    used_boundary = true;
                    work.local_decisions += 1;
                }
                TupleImpact::Affected => {
                    work.local_decisions += 1;
                    return Ok(RuleOutcome::Affected(format!(
                        "{} tuple in `{}` lands at or inside the top-{} boundary ({boundary})",
                        if is_insert { "Δ⁺ inserted" } else { "Δ⁻ deleted" },
                        ty.from[0].table,
                        self.k,
                    )));
                }
                TupleImpact::NeedsPoll(_) => return Ok(RuleOutcome::HandOn),
            }
        }
        // A proof that *needed* the boundary kept a page the conventional
        // path would have ejected.
        Ok(if used_boundary { RuleOutcome::Kept } else { RuleOutcome::Unaffected })
    }
}

/// Resolve the TopK plan of a type, or `None` when the boundary rule does
/// not apply (joins, DISTINCT, aggregates, expression order keys): those
/// types take the conjunctive decision path unchanged. Nothing it looks at
/// depends on an instance's values.
pub fn topk_plan(select: &Select, schemas: &dyn SchemaProvider) -> Option<TopKPlan> {
    if select.from.len() != 1
        || select.distinct
        || !select.group_by.is_empty()
        || select.having.is_some()
        || select.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            _ => false,
        })
    {
        return None;
    }
    let k = match select.limit {
        Some(k) if k > 0 => k as usize,
        _ => return None,
    };
    let first = select.order_by.first()?;
    let Expr::Column(c) = &first.expr else {
        return None;
    };
    // The key must resolve on the single FROM table (qualifier, if any,
    // must name its binding) — mirroring the engine's binder.
    if let Some(q) = &c.table {
        if !select.from[0].binding().eq_ignore_ascii_case(q) {
            return None;
        }
    }
    let schema = schemas.schema_of(&select.from[0].table)?;
    let order_col = schema.require(&c.column).ok()?;
    Some(TopKPlan {
        order_col,
        ascending: first.ascending,
        k,
        poll: Select {
            distinct: false,
            items: vec![SelectItem::Expr {
                expr: Expr::Column(c.clone()),
                alias: None,
            }],
            from: select.from.clone(),
            where_clause: select.where_clause.clone(),
            group_by: vec![],
            having: None,
            order_by: select.order_by.clone(),
            limit: select.limit,
        },
    })
}

/// Which value-preserving accumulator tracks one aggregate select item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)` — group row count.
    CountStar,
    /// `COUNT(col)` — non-NULL count of the column at this schema position.
    CountCol(usize),
    /// `SUM(col)` — non-NULL count *and* exact integer sum.
    SumCol(usize),
    /// `AVG(col)` — same tracked state as SUM (avg = sum / count).
    AvgCol(usize),
}

/// Pre-resolved aggregate shape of one bound instance: enough to recompute
/// the delta's net effect on every projected aggregate without touching
/// the DBMS (the "value-preserving poll" of ROADMAP item 3, evaluated over
/// the delta only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSpec {
    /// Schema positions of the GROUP BY columns (empty = one global group).
    pub group_cols: Vec<usize>,
    /// One tracked accumulator per aggregate select item.
    pub aggs: Vec<AggKind>,
}

/// Resolve the aggregate shape of a bound instance, or `None` when the
/// value-preserving rule cannot apply. Eligibility is deliberately narrow —
/// anything outside it takes the conjunctive (conservative) path:
///
/// * single-table FROM, no DISTINCT, no HAVING (a HAVING clause may
///   reference aggregates we do not track, flipping group membership);
/// * every item is a grouped plain column or a non-DISTINCT
///   `COUNT(*)`/`COUNT(col)`/`SUM(col)`/`AVG(col)` (MIN/MAX need the full
///   group's value multiset, which a delta cannot preserve-check);
/// * every GROUP BY column appears among the ORDER BY keys (or there is no
///   GROUP BY): the engine emits groups in first-seen storage order, so an
///   unordered grouped result can change row *order* even when every group's
///   values are unchanged.
pub fn agg_spec(bound: &Select, schemas: &dyn SchemaProvider) -> Option<AggSpec> {
    if bound.from.len() != 1 || bound.distinct || bound.having.is_some() {
        return None;
    }
    let schema = schemas.schema_of(&bound.from[0].table)?;
    let col_of = |c: &cacheportal_db::sql::ast::ColumnRef| -> Option<usize> {
        if let Some(q) = &c.table {
            if !bound.from[0].binding().eq_ignore_ascii_case(q) {
                return None;
            }
        }
        schema.require(&c.column).ok()
    };
    let mut group_cols = Vec::with_capacity(bound.group_by.len());
    for g in &bound.group_by {
        group_cols.push(col_of(g)?);
    }
    if !bound.group_by.is_empty() {
        // Deterministic output order: every group column must be an ORDER BY
        // key (distinct groups then always differ on some key, so the sort
        // is total over groups and storage order cannot leak through).
        for g in &bound.group_by {
            let ordered = bound.order_by.iter().any(|k| match &k.expr {
                Expr::Column(c) => c.column.eq_ignore_ascii_case(&g.column),
                _ => false,
            });
            if !ordered {
                return None;
            }
        }
    }
    let mut aggs = Vec::new();
    for item in &bound.items {
        let SelectItem::Expr { expr, .. } = item else {
            return None; // SELECT * in an aggregate is rejected anyway
        };
        match expr {
            Expr::Column(c) => {
                let col = col_of(c)?;
                if !group_cols.contains(&col) {
                    return None;
                }
            }
            Expr::Agg {
                func,
                arg,
                distinct: false,
            } => {
                let arg_col = match arg {
                    None => None,
                    Some(a) => match &**a {
                        Expr::Column(c) => Some(col_of(c)?),
                        _ => return None,
                    },
                };
                let kind = match (func, arg_col) {
                    (AggFunc::Count, None) => AggKind::CountStar,
                    (AggFunc::Count, Some(c)) => AggKind::CountCol(c),
                    (AggFunc::Sum, Some(c)) => AggKind::SumCol(c),
                    (AggFunc::Avg, Some(c)) => AggKind::AvgCol(c),
                    _ => return None, // MIN/MAX, SUM(*) etc.
                };
                aggs.push(kind);
            }
            _ => return None,
        }
    }
    Some(AggSpec { group_cols, aggs })
}

impl AggSpec {
    /// The value-preserving rule for one instance of `ty`: collect the delta
    /// tuples that match the instance's predicates and judge whether they
    /// leave every group's row count and every tracked aggregate provably
    /// unchanged. Unchanged keeps the instance; anything else makes it
    /// affected, including judgements the exactness argument cannot cover
    /// (those never count as unchanged). A tuple that needs a poll hands the
    /// instance on.
    pub(crate) fn decide(
        &self,
        ty: &TypeAnalysis,
        params: &[Value],
        delta: &TableDelta,
        work: &mut RuleWork,
    ) -> DbResult<RuleOutcome> {
        let mut matching: Vec<(&Row, bool)> = Vec::new();
        for (tuple, is_insert) in delta.tuples() {
            work.tuples_analyzed += 1;
            match ty.analyze_tuple(params, 0, tuple)? {
                TupleImpact::NoImpact => work.local_decisions += 1,
                TupleImpact::Affected => matching.push((tuple, is_insert)),
                TupleImpact::NeedsPoll(_) => return Ok(RuleOutcome::HandOn),
            }
        }
        if matching.is_empty() {
            return Ok(RuleOutcome::Unaffected);
        }
        work.local_decisions += 1;
        Ok(match judge_aggregate_delta(self, &matching) {
            AggJudgement::Unchanged => RuleOutcome::Kept,
            AggJudgement::Changed(detail) => {
                RuleOutcome::Affected(format!("matching delta changes the aggregate: {detail}"))
            }
            AggJudgement::Unprovable(detail) => {
                RuleOutcome::Affected(format!("aggregate delta not provably unchanged: {detail}"))
            }
        })
    }
}

/// Verdict of the delta-only aggregate recomputation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum AggJudgement {
    /// Every touched group's row count and every tracked aggregate are
    /// provably unchanged: the cached page stays valid.
    Unchanged,
    /// Some group's aggregate value changes (net row/count/sum ≠ 0).
    Changed(String),
    /// The delta carries values the exactness argument cannot cover
    /// (non-integers or magnitudes near 2^53 where f64 summation rounds):
    /// treat as affected, never as unchanged.
    Unprovable(String),
}

/// Integer magnitude bound under which f64 summation of the engine's
/// `AggState` is exact for any realistic group size (2^40 leaves 2^13 of
/// headroom below f64's 2^53 integer range).
const AGG_EXACT_BOUND: i64 = 1 << 40;

/// Recompute the net effect of the matching delta tuples on every tracked
/// group/aggregate. `matching` holds rows that already passed the
/// instance's WHERE clause, tagged with `true` for Δ⁺ inserts.
fn judge_aggregate_delta(spec: &AggSpec, matching: &[(&Row, bool)]) -> AggJudgement {
    use std::collections::HashMap;
    // Per group: (net rows, per tracked agg: (net non-NULL count, net sum)).
    type GroupNet = (i64, Vec<(i64, i128)>);
    let mut groups: HashMap<Vec<cacheportal_db::Value>, GroupNet> = HashMap::new();
    for (row, is_insert) in matching {
        let mut key = Vec::with_capacity(spec.group_cols.len());
        for c in &spec.group_cols {
            match row.get(*c) {
                Some(v) => key.push(v.clone()),
                None => return AggJudgement::Unprovable("delta row narrower than schema".into()),
            }
        }
        let sign: i64 = if *is_insert { 1 } else { -1 };
        let entry = groups
            .entry(key)
            .or_insert_with(|| (0, vec![(0, 0); spec.aggs.len()]));
        entry.0 += sign;
        for (slot, kind) in spec.aggs.iter().enumerate() {
            let col = match kind {
                AggKind::CountStar => continue,
                AggKind::CountCol(c) | AggKind::SumCol(c) | AggKind::AvgCol(c) => *c,
            };
            let Some(v) = row.get(col) else {
                return AggJudgement::Unprovable("delta row narrower than schema".into());
            };
            match v {
                cacheportal_db::Value::Null => {}
                cacheportal_db::Value::Int(n) => {
                    if matches!(kind, AggKind::SumCol(_) | AggKind::AvgCol(_))
                        && n.unsigned_abs() > AGG_EXACT_BOUND as u64
                    {
                        return AggJudgement::Unprovable(format!(
                            "summed value {n} exceeds the exact-arithmetic bound"
                        ));
                    }
                    entry.1[slot].0 += sign;
                    entry.1[slot].1 += i128::from(*n) * i128::from(sign);
                }
                other => {
                    if matches!(kind, AggKind::SumCol(_) | AggKind::AvgCol(_)) {
                        return AggJudgement::Unprovable(format!(
                            "non-integer summed value {other:?}"
                        ));
                    }
                    entry.1[slot].0 += sign;
                }
            }
        }
    }
    for (key, (net_rows, per_agg)) in &groups {
        if *net_rows != 0 {
            return AggJudgement::Changed(format!(
                "group {key:?} row count changes by {net_rows:+}"
            ));
        }
        for (slot, (net_count, net_sum)) in per_agg.iter().enumerate() {
            if *net_count != 0 || *net_sum != 0 {
                return AggJudgement::Changed(format!(
                    "group {key:?} aggregate #{slot} net count {net_count:+}, net sum {net_sum:+}"
                ));
            }
        }
    }
    AggJudgement::Unchanged
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::sql::parser::parse_select;
    use cacheportal_db::sql::rewrite::parameterize;
    use cacheportal_db::Database;

    /// Example 4.1 database: Car(maker, model, price), Mileage(model, EPA).
    fn example_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)")
            .unwrap();
        db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT)")
            .unwrap();
        db
    }

    /// An instance as the registry holds it: its type's analysis and its
    /// parameter values, parsed out of the instance's text.
    struct Instance(TypeAnalysis, Vec<Value>);

    fn bound(sql: &str, db: &Database) -> Instance {
        let (template, params) = parameterize(&parse_select(sql).unwrap());
        let shape = QueryShape::classify(&template);
        Instance(TypeAnalysis::new(&template, shape, db).unwrap(), params)
    }

    fn analyze_tuple(inst: &Instance, occurrence: usize, tuple: &Row) -> DbResult<TupleImpact> {
        inst.0.analyze_tuple(&inst.1, occurrence, tuple)
    }

    /// The poll's text parses back to the tree it was rendered from, and
    /// that tree binds against the remaining FROM list: columns that
    /// resolved to the removed occurrence were substituted, the others keep
    /// working because binding names are unchanged.
    fn residual_is_executable(poll: &PollingQuery, db: &Database) -> bool {
        let select = poll.select();
        parse_select(&poll.sql()).as_ref() == Ok(select)
            && TypeAnalysis::new(select, QueryShape::Conjunctive, db).is_ok()
    }

    const QUERY1: &str = "select Car.maker, Car.model, Car.price, Mileage.EPA \
                          from Car, Mileage \
                          where Car.model = Mileage.model and Car.price < 20000";

    #[test]
    fn eclipse_insert_has_no_impact() {
        // Paper: (Mitsubishi, Eclipse, 20,000) fails Car.price < 20000
        // locally — no polling needed.
        let db = example_db();
        let inst = bound(QUERY1, &db);
        let impact = analyze_tuple(
            &inst,
            0,
            &vec!["Mitsubishi".into(), "Eclipse".into(), Value::Int(20000)],
        )
        .unwrap();
        assert_eq!(impact, TupleImpact::NoImpact);
    }

    #[test]
    fn avalon_insert_needs_paper_poll_query() {
        // Paper: (Toyota, Avalon, 25,000)... the paper's example uses a
        // tuple that *passes* the price check; ours must too, so use 15000.
        let db = example_db();
        let inst = bound(QUERY1, &db);
        let impact = analyze_tuple(
            &inst,
            0,
            &vec!["Toyota".into(), "Avalon".into(), Value::Int(15000)],
        )
        .unwrap();
        let TupleImpact::NeedsPoll(poll) = impact else {
            panic!("expected poll, got {impact:?}");
        };
        // Residual: 'Avalon' = Mileage.model over table Mileage.
        assert_eq!(
            poll.sql(),
            "SELECT COUNT(*) FROM Mileage WHERE 'Avalon' = Mileage.model"
        );
        assert_eq!(&*poll.other_tables, ["mileage"]);
        assert!(residual_is_executable(&poll, &db));
    }

    #[test]
    fn mileage_insert_polls_car_side() {
        let db = example_db();
        let inst = bound(QUERY1, &db);
        let impact = analyze_tuple(&inst, 1, &vec!["Avalon".into(), Value::Float(28.0)]).unwrap();
        let TupleImpact::NeedsPoll(poll) = impact else {
            panic!("expected poll")
        };
        assert_eq!(
            poll.sql(),
            "SELECT COUNT(*) FROM Car WHERE Car.model = 'Avalon' AND Car.price < 20000"
        );
        assert!(residual_is_executable(&poll, &db));
    }

    #[test]
    fn single_table_decides_without_polling() {
        let db = example_db();
        let inst = bound("SELECT * FROM Car WHERE price < 20000", &db);
        let hit = analyze_tuple(&inst, 0, &vec!["a".into(), "b".into(), Value::Int(10)]).unwrap();
        assert_eq!(hit, TupleImpact::Affected);
        let miss =
            analyze_tuple(&inst, 0, &vec!["a".into(), "b".into(), Value::Int(90000)]).unwrap();
        assert_eq!(miss, TupleImpact::NoImpact);
    }

    #[test]
    fn no_where_clause_single_table_always_affected() {
        let db = example_db();
        let inst = bound("SELECT * FROM Car", &db);
        let impact = analyze_tuple(&inst, 0, &vec!["a".into(), "b".into(), Value::Int(1)]).unwrap();
        assert_eq!(impact, TupleImpact::Affected);
    }

    #[test]
    fn no_where_clause_join_polls_other_table_nonempty() {
        let db = example_db();
        let inst = bound("SELECT Car.maker FROM Car, Mileage", &db);
        let impact = analyze_tuple(&inst, 0, &vec!["a".into(), "b".into(), Value::Int(1)]).unwrap();
        let TupleImpact::NeedsPoll(poll) = impact else {
            panic!()
        };
        assert_eq!(poll.sql(), "SELECT COUNT(*) FROM Mileage");
    }

    #[test]
    fn null_in_compared_column_means_no_impact() {
        let db = example_db();
        let inst = bound("SELECT * FROM Car WHERE price < 20000", &db);
        let impact = analyze_tuple(&inst, 0, &vec!["a".into(), "b".into(), Value::Null]).unwrap();
        assert_eq!(impact, TupleImpact::NoImpact, "NULL < 20000 is not true");
    }

    #[test]
    fn aliases_are_preserved_in_polls() {
        let db = example_db();
        let inst = bound(
            "SELECT c.maker FROM Car c, Mileage m WHERE c.model = m.model AND c.price < 5",
            &db,
        );
        let impact = analyze_tuple(&inst, 0, &vec!["T".into(), "X".into(), Value::Int(1)]).unwrap();
        let TupleImpact::NeedsPoll(poll) = impact else {
            panic!()
        };
        assert_eq!(poll.sql(), "SELECT COUNT(*) FROM Mileage m WHERE 'X' = m.model");
        assert!(residual_is_executable(&poll, &db));
    }

    #[test]
    fn self_join_occurrences_analyzed_independently() {
        let db = example_db();
        let inst = bound(
            "SELECT a.maker FROM Car a, Car b WHERE a.model = b.model AND a.price < b.price",
            &db,
        );
        let t = vec!["T".into(), "M".into(), Value::Int(100)];
        let i0 = analyze_tuple(&inst, 0, &t).unwrap();
        let TupleImpact::NeedsPoll(p0) = i0 else { panic!() };
        assert_eq!(
            p0.sql(),
            "SELECT COUNT(*) FROM Car b WHERE 'M' = b.model AND 100 < b.price"
        );
        let i1 = analyze_tuple(&inst, 1, &t).unwrap();
        let TupleImpact::NeedsPoll(p1) = i1 else { panic!() };
        assert_eq!(
            p1.sql(),
            "SELECT COUNT(*) FROM Car a WHERE a.model = 'M' AND a.price < 100"
        );
    }

    #[test]
    fn or_conjunct_spanning_tables_goes_to_residual() {
        let db = example_db();
        let inst = bound(
            "SELECT Car.maker FROM Car, Mileage \
             WHERE Car.model = Mileage.model AND (Car.price < 10 OR Mileage.EPA > 30)",
            &db,
        );
        // Tuple fails price < 10 but the OR can still hold via EPA.
        let impact =
            analyze_tuple(&inst, 0, &vec!["T".into(), "M".into(), Value::Int(50)]).unwrap();
        let TupleImpact::NeedsPoll(poll) = impact else {
            panic!()
        };
        assert!(poll.sql().contains("(50 < 10 OR Mileage.EPA > 30)"));
    }

    #[test]
    fn scalar_functions_in_predicates_analyze_correctly() {
        let db = example_db();
        let inst = bound("SELECT * FROM Car WHERE UPPER(maker) = 'TOYOTA'", &db);
        let hit =
            analyze_tuple(&inst, 0, &vec!["toyota".into(), "m".into(), Value::Int(1)]).unwrap();
        assert_eq!(hit, TupleImpact::Affected);
        let miss =
            analyze_tuple(&inst, 0, &vec!["honda".into(), "m".into(), Value::Int(1)]).unwrap();
        assert_eq!(miss, TupleImpact::NoImpact);
    }

    #[test]
    fn boundary_poll_carries_order_by_and_limit() {
        // Regression for the former clause drop when building polls: a TopK
        // instance's boundary poll must keep ORDER BY … LIMIT verbatim.
        let mut db = example_db();
        for (m, p) in [("a", 10), ("b", 30), ("c", 20), ("d", 40), ("e", 5)] {
            db.execute(&format!("INSERT INTO Car VALUES ('T','{m}',{p})"))
                .unwrap();
        }
        // As registered: the type with its marker, the instance's value apart.
        let (template, params) = parameterize(
            &parse_select("SELECT model FROM Car WHERE maker = 'T' ORDER BY price DESC LIMIT 3")
                .unwrap(),
        );
        let spec = topk_plan(&template, &db).unwrap();
        assert_eq!(spec.k, 3);
        assert!(!spec.ascending);
        assert_eq!(spec.order_col, 2, "price is the third Car column");
        assert_eq!(
            cacheportal_db::sql::ast::Bound(&spec.poll, &params).to_string(),
            "SELECT price FROM Car WHERE maker = 'T' ORDER BY price DESC LIMIT 3"
        );
        // Executing the poll returns exactly the bounded, ordered set — not
        // the full matching set the old clause-stripping would have given.
        let res = db.query_select(&spec.poll, &params).unwrap();
        let got: Vec<Value> = res.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            got,
            vec![Value::Int(40), Value::Int(30), Value::Int(20)],
            "bounded set only; boundary (k-th key) is 20"
        );
    }

    #[test]
    fn topk_plan_rejects_ineligible_shapes() {
        let db = example_db();
        let ineligible = [
            // Join: the boundary rule needs the order key on the touched table.
            "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model \
             ORDER BY Car.price LIMIT 2",
            // No ORDER BY.
            "SELECT model FROM Car LIMIT 2",
            // No LIMIT.
            "SELECT model FROM Car ORDER BY price",
            // DISTINCT changes the row-multiset argument.
            "SELECT DISTINCT model FROM Car ORDER BY model LIMIT 2",
            // Expression order key.
            "SELECT model FROM Car ORDER BY price + 1 LIMIT 2",
        ];
        for sql in ineligible {
            let sel = parse_select(sql).unwrap();
            assert!(topk_plan(&sel, &db).is_none(), "{sql}");
        }
    }

    #[test]
    fn agg_spec_eligibility_is_narrow() {
        let db = example_db();
        let ok = [
            "SELECT maker, COUNT(*) FROM Car GROUP BY maker ORDER BY maker",
            "SELECT COUNT(*) FROM Car WHERE price < 100",
            "SELECT maker, SUM(price), AVG(price), COUNT(price) FROM Car \
             GROUP BY maker ORDER BY maker",
        ];
        for sql in ok {
            let sel = parse_select(sql).unwrap();
            assert!(agg_spec(&sel, &db).is_some(), "{sql}");
        }
        let ineligible = [
            // Unordered groups: output order depends on storage order.
            "SELECT maker, COUNT(*) FROM Car GROUP BY maker",
            // MIN needs the full value multiset.
            "SELECT maker, MIN(price) FROM Car GROUP BY maker ORDER BY maker",
            // HAVING may reference untracked aggregates.
            "SELECT maker, COUNT(*) FROM Car GROUP BY maker \
             HAVING COUNT(*) > 1 ORDER BY maker",
            // DISTINCT aggregation.
            "SELECT maker, COUNT(DISTINCT model) FROM Car GROUP BY maker ORDER BY maker",
        ];
        for sql in ineligible {
            let sel = parse_select(sql).unwrap();
            assert!(agg_spec(&sel, &db).is_none(), "{sql}");
        }
    }

    #[test]
    fn aggregate_delta_judgement_nets_to_zero_or_changed() {
        let db = example_db();
        let sel = parse_select(
            "SELECT maker, COUNT(*), SUM(price) FROM Car GROUP BY maker ORDER BY maker",
        )
        .unwrap();
        let spec = agg_spec(&sel, &db).unwrap();
        let t = |maker: &str, price: i64| -> Row {
            vec![maker.into(), "m".into(), Value::Int(price)]
        };
        // Value-preserving update: delete (T, 10), insert (T, 10).
        let del = t("T", 10);
        let ins = t("T", 10);
        let matching: Vec<(&Row, bool)> = vec![(&del, false), (&ins, true)];
        assert_eq!(judge_aggregate_delta(&spec, &matching), AggJudgement::Unchanged);
        // Same count, different sum → changed.
        let ins2 = t("T", 11);
        let matching: Vec<(&Row, bool)> = vec![(&del, false), (&ins2, true)];
        assert!(matches!(
            judge_aggregate_delta(&spec, &matching),
            AggJudgement::Changed(_)
        ));
        // Pure insert → group count changes.
        let matching: Vec<(&Row, bool)> = vec![(&ins, true)];
        assert!(matches!(
            judge_aggregate_delta(&spec, &matching),
            AggJudgement::Changed(_)
        ));
        // NULL in the summed column still counts as a row (COUNT(*)), and a
        // delete+insert of NULL rows nets out.
        let null_row: Row = vec!["T".into(), "m".into(), Value::Null];
        let null_row2 = null_row.clone();
        let matching: Vec<(&Row, bool)> = vec![(&null_row, false), (&null_row2, true)];
        assert_eq!(judge_aggregate_delta(&spec, &matching), AggJudgement::Unchanged);
        // NULL↔0 transition is *not* value-preserving for SUM: the non-NULL
        // count guard catches it.
        let zero = t("T", 0);
        let matching: Vec<(&Row, bool)> = vec![(&null_row, false), (&zero, true)];
        assert!(matches!(
            judge_aggregate_delta(&spec, &matching),
            AggJudgement::Changed(_)
        ));
        // Huge values bail out of the exactness argument.
        let big_del = t("T", (1 << 41) + 1);
        let big_ins = t("T", (1 << 41) + 1);
        let matching: Vec<(&Row, bool)> = vec![(&big_del, false), (&big_ins, true)];
        assert!(matches!(
            judge_aggregate_delta(&spec, &matching),
            AggJudgement::Unprovable(_)
        ));
    }

    #[test]
    fn fully_local_or_decided_without_poll() {
        let db = example_db();
        let inst = bound(
            "SELECT * FROM Car WHERE price < 10 OR maker = 'Toyota'",
            &db,
        );
        let hit =
            analyze_tuple(&inst, 0, &vec!["Toyota".into(), "M".into(), Value::Int(99)]).unwrap();
        assert_eq!(hit, TupleImpact::Affected);
        let miss =
            analyze_tuple(&inst, 0, &vec!["Honda".into(), "M".into(), Value::Int(99)]).unwrap();
        assert_eq!(miss, TupleImpact::NoImpact);
    }
}
