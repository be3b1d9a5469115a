//! Query planning and execution.
//!
//! One access-path planner serves SELECT, UPDATE and DELETE. A SELECT is
//! planned in two parts. `PreparedSelect` is everything that does not
//! depend on parameter values: it binds each WHERE conjunct once (a `$n`
//! stays a marker), files it under the FROM table that completes it,
//! propagates constants across equi-join equalities (`a.x = $1 ∧ a.x = b.y
//! ⇒ b.y = $1`), binds the projection and the ORDER BY keys and names the
//! output columns. It is tied to the schema `Arc`s it was bound against, and
//! the engine keeps it with a cached statement. Each execution then fixes,
//! per FROM table, an `AccessPath` and a join kind from the values at
//! hand: index nested-loop when the join column is hash-indexed and the
//! outer side is estimated no larger than what the table's own access path
//! would fetch, else a hash join on an equi-join conjunct, else a filtered
//! nested loop. Running the plan only dispatches on those kinds, and
//! [`explain_select`] prints the same plan. UPDATE and DELETE find their
//! rows through `find_rows`, the single-table case of the same
//! classification. Every access path emits rows in storage order, so a
//! result — including the order of an un-`ORDER`ed one — does not depend on
//! which indexes exist.

use crate::error::{DbError, DbResult};
use crate::eval::{bind, bind_marked, AggState, BindContext, BoundExpr};
use crate::schema::SchemaRef;
use crate::sql::ast::{AggFunc, CmpOp, ColumnRef, Expr, Select, SelectItem};
use crate::table::{Catalog, Row, RowId, Table};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

/// Result set of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names: the prepared statement's, shared by every
    /// result of it.
    pub columns: Arc<[String]>,
    /// Result rows, in output order.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Stable textual fingerprint of the result (used by page renderers and
    /// the freshness oracle). Row order matters, as it does for a web page.
    pub fn fingerprint(&self) -> String {
        let mut s = String::with_capacity(64 + self.rows.len() * 16);
        s.push_str(&self.columns.join(","));
        for row in &self.rows {
            s.push('\n');
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    s.push('|');
                }
                s.push_str(&v.to_string());
            }
        }
        s
    }
}

/// Work counters for one statement execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows visited by sequential scans.
    pub rows_scanned: u64,
    /// Rows produced by joins before projection.
    pub rows_joined: u64,
    /// Rows in the final result.
    pub rows_output: u64,
    /// Rows fetched through a hash or ordered index instead of a scan.
    pub index_probes: u64,
    /// Full sequential scans the planner fell back to (no usable index).
    pub seq_scans: u64,
}

impl ExecStats {
    /// Abstract work units: the simulator maps these to service time.
    pub fn work(&self) -> u64 {
        self.rows_scanned + self.rows_joined + self.rows_output + self.index_probes
    }

    /// Rows read from tables, by scan or through an index.
    pub fn rows_read(&self) -> u64 {
        self.rows_scanned + self.index_probes
    }

    /// Accumulate another run’s counters.
    pub fn add(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_joined += other.rows_joined;
        self.rows_output += other.rows_output;
        self.index_probes += other.index_probes;
        self.seq_scans += other.seq_scans;
    }
}

/// How one table's rows are fetched in one execution. The key and bounds
/// borrow the plan's literals or the execution's parameters.
#[derive(Debug, Clone, Copy)]
enum AccessPath<'v> {
    /// Full sequential scan.
    SeqScan,
    /// Hash-index probe: rows whose `column` equals `key`.
    IndexProbe { column: usize, key: &'v Value },
    /// Ordered-index scan of `column` within the bounds a conjunct implies.
    RangeScan {
        column: usize,
        low: Bound<&'v Value>,
        high: Bound<&'v Value>,
    },
}

/// A `(FROM position, column position)` pair.
type ColumnAt = (usize, usize);

/// The equi-join conjunct `outer = inner_col` that drives a join step.
#[derive(Debug, Clone, Copy)]
struct EquiKey {
    outer: ColumnAt,
    inner_col: usize,
}

/// How a step combines its table with the combinations joined so far.
#[derive(Debug, Clone, Copy)]
enum Join {
    /// Probe the table's hash index on the join column once per outer row.
    Index(EquiKey),
    /// Fetch the table by its own access path and hash it on the join column.
    Hash(EquiKey),
    /// No equi-join conjunct: every fetched row against every outer row.
    /// The first FROM table joins the one empty combination this way.
    NestedLoop,
}

/// One FROM table's share of the WHERE clause.
#[derive(Debug, Default)]
struct Filed {
    /// Conjuncts over this table alone, rebased to table 0 so they evaluate
    /// against the bare row; includes propagated constants.
    local: Vec<BoundExpr>,
    /// Multi-table conjuncts whose last table is this one.
    checks: Vec<BoundExpr>,
}

/// One FROM table's part of an execution's plan.
struct Step<'a> {
    table: &'a Table,
    filed: &'a Filed,
    access: AccessPath<'a>,
    join: Join,
}

/// What a SELECT's output rows are made of.
#[derive(Debug)]
enum Projection {
    /// One row per joined combination, projected after ORDER BY and LIMIT.
    Plain {
        items: Vec<Proj>,
        /// Keys over the source rows (they need not be projected), with
        /// their direction.
        order: Vec<(BoundExpr, bool)>,
    },
    /// One row per group.
    Aggregate {
        group_cols: Vec<ColumnAt>,
        items: Vec<AggItem>,
        /// Over the output row (see [`prepare_aggregate`]).
        having: Option<BoundExpr>,
        /// Keys as output column positions, with their direction.
        order: Vec<(usize, bool)>,
    },
}

/// A plain output column.
#[derive(Debug)]
enum Proj {
    Col(usize, usize),
    Expr(BoundExpr),
}

/// An aggregate query's output column: a grouped column (by its position
/// among the GROUP BY columns) or an aggregate.
#[derive(Debug)]
enum AggItem {
    GroupKey(usize),
    Agg {
        func: AggFunc,
        arg: Option<BoundExpr>,
        distinct: bool,
    },
}

/// A SELECT planned as far as it can be without parameter values: bound
/// against the FROM tables' schemas, with its WHERE conjuncts filed per
/// table, its projection bound and its output columns named. The engine
/// keeps one with each cached statement and uses it for as long as
/// [`PreparedSelect::is_current`] holds; an uncached SELECT is prepared and
/// executed in one go.
#[derive(Debug)]
pub(crate) struct PreparedSelect {
    /// The schema of each FROM table, as bound.
    schemas: Vec<SchemaRef>,
    filed: Vec<Filed>,
    projection: Projection,
    columns: Arc<[String]>,
    /// The highest `$n` the statement names.
    needs: usize,
}

/// Resolve the FROM tables and bind and file the WHERE conjuncts: the part
/// of preparing that [`explain_select`] needs.
fn prepare_from_where(
    catalog: &Catalog,
    select: &Select,
    params: &[Value],
) -> DbResult<(BindContext, Vec<Filed>)> {
    let mut tables = Vec::with_capacity(select.from.len());
    for tref in &select.from {
        let t = catalog.require(&tref.table)?;
        // Duplicate binding names would make resolution ambiguous.
        if tables
            .iter()
            .any(|(n, _): &(String, _)| n.eq_ignore_ascii_case(tref.binding()))
        {
            return Err(DbError::Parse(format!(
                "duplicate table binding '{}' in FROM",
                tref.binding()
            )));
        }
        tables.push((tref.binding().to_string(), t.schema().clone()));
    }
    let ctx = BindContext::new(tables);

    let mut conjuncts = Vec::new();
    for c in select.where_clause.iter().flat_map(|w| w.conjuncts()) {
        conjuncts.push(bind_marked(c, &ctx, params)?);
    }
    // Constant propagation: a column equated both with a constant and with
    // another column fixes that column too (SQL equality is transitive).
    // Each column gains at most one derived conjunct, so this terminates.
    let mut consts: Vec<(ColumnAt, BoundExpr)> = conjuncts
        .iter()
        .filter_map(|c| const_eq(c).map(|(col, k)| (col, k.clone())))
        .collect();
    let equalities: Vec<(ColumnAt, ColumnAt)> = conjuncts.iter().filter_map(column_eq).collect();
    let mut i = 0;
    while i < consts.len() {
        for (a, b) in &equalities {
            let other = match consts[i].0 {
                c if c == *a => *b,
                c if c == *b => *a,
                _ => continue,
            };
            if consts.iter().all(|(c, _)| *c != other) {
                let key = consts[i].1.clone();
                conjuncts.push(BoundExpr::Cmp {
                    left: Box::new(BoundExpr::Column {
                        table: other.0,
                        column: other.1,
                    }),
                    op: CmpOp::Eq,
                    right: Box::new(key.clone()),
                });
                consts.push((other, key));
            }
        }
        i += 1;
    }

    // File each conjunct under the last FROM table it references: alone
    // there it is pushed down into the fetch, otherwise it is checked as
    // soon as that table has joined. A conjunct over no table at all is
    // evaluated with the first.
    let mut filed: Vec<Filed> = ctx.tables.iter().map(|_| Filed::default()).collect();
    for mut c in conjuncts {
        let (mut first, mut last) = (usize::MAX, None);
        walk_columns(&mut c, &mut |t| {
            first = first.min(*t);
            last = last.max(Some(*t));
        });
        let at = last.unwrap_or(0);
        if last.is_some() && first != at {
            filed[at].checks.push(c);
        } else {
            walk_columns(&mut c, &mut |t| *t = 0);
            filed[at].local.push(c);
        }
    }
    Ok((ctx, filed))
}

impl PreparedSelect {
    /// Prepare `select` against `catalog`. `params` are the values of the
    /// execution this is prepared for: binding checks that they cover every
    /// `$n`, so a statement fails exactly as it would without preparing.
    pub(crate) fn new(catalog: &Catalog, select: &Select, params: &[Value]) -> DbResult<Self> {
        let (ctx, filed) = prepare_from_where(catalog, select, params)?;
        let aggregate = is_aggregate(select);
        if select.having.is_some() && !aggregate {
            return Err(DbError::Unsupported(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        let (columns, projection) = if aggregate {
            prepare_aggregate(select, &ctx, params)?
        } else {
            prepare_plain(select, &ctx, params)?
        };
        let mut needs = 0;
        for e in select.exprs() {
            e.visit(&mut |e| {
                if let Expr::Param(i) = e {
                    needs = needs.max(*i);
                }
            });
        }
        Ok(PreparedSelect {
            schemas: ctx.tables.into_iter().map(|(_, schema)| schema).collect(),
            filed,
            projection,
            columns: columns.into(),
            needs,
        })
    }

    /// May this plan of `select` run against `catalog` with `params`? Only
    /// while every FROM table still has the schema it was bound against,
    /// and only with a value for every `$n`.
    pub(crate) fn is_current(&self, catalog: &Catalog, select: &Select, params: &[Value]) -> bool {
        self.needs <= params.len()
            && select.from.iter().zip(&self.schemas).all(|(tref, schema)| {
                catalog
                    .get(&tref.table)
                    .is_some_and(|t| Arc::ptr_eq(t.schema(), schema))
            })
    }

    /// Run the plan. The caller has checked [`PreparedSelect::is_current`].
    pub(crate) fn execute(
        &self,
        catalog: &Catalog,
        select: &Select,
        params: &[Value],
        stats: &mut ExecStats,
    ) -> DbResult<QueryResult> {
        let steps = plan_steps(catalog, select, &self.filed, params)?;
        let joined = run(&steps, params, stats);
        let width = steps.len();
        let limit = select.limit.map(|n| n as usize);
        let mut rows = match &self.projection {
            Projection::Plain { items, order } => {
                let mut combos: Vec<&[&Row]> = joined.chunks(width).collect();
                if !order.is_empty() {
                    combos.sort_by(|a, b| order_combos(order, a, b, params));
                }
                // Without DISTINCT a combination is one output row, so LIMIT
                // cuts before anything is projected.
                if let (false, Some(n)) = (select.distinct, limit) {
                    combos.truncate(n);
                }
                combos
                    .iter()
                    .map(|combo| {
                        items
                            .iter()
                            .map(|p| match p {
                                Proj::Col(ti, ci) => combo[*ti][*ci].clone(),
                                Proj::Expr(e) => e.eval_with(combo, params),
                            })
                            .collect()
                    })
                    .collect()
            }
            Projection::Aggregate {
                group_cols,
                items,
                having,
                ..
            } => aggregate(group_cols, items, having.as_ref(), &joined, width, params),
        };
        if select.distinct {
            dedupe(&mut rows);
        }
        if let Projection::Aggregate { order, .. } = &self.projection {
            if !order.is_empty() {
                rows.sort_by(|a, b| {
                    for &(i, asc) in order {
                        let ord = a[i].cmp(&b[i]);
                        let ord = if asc { ord } else { ord.reverse() };
                        if !ord.is_eq() {
                            return ord;
                        }
                    }
                    // Storage-independent tie-break (see `order_combos`).
                    a.cmp(b)
                });
            }
        }
        if let Some(n) = limit {
            rows.truncate(n);
        }
        stats.rows_output += rows.len() as u64;
        Ok(QueryResult {
            columns: self.columns.clone(),
            rows,
        })
    }
}

/// Choose, from the parameter values at hand, each FROM table's access path
/// and join kind.
fn plan_steps<'a>(
    catalog: &'a Catalog,
    select: &Select,
    filed: &'a [Filed],
    params: &'a [Value],
) -> DbResult<Vec<Step<'a>>> {
    let mut steps = Vec::with_capacity(filed.len());
    let mut outer_rows = 1usize; // estimated combinations joined so far
    for (ti, (tref, filed)) in select.from.iter().zip(filed).enumerate() {
        let table = catalog.require(&tref.table)?;
        let access = choose_access_path(table, &filed.local, params);
        let fetched = match access {
            AccessPath::IndexProbe { column, key } => {
                table.index_lookup(column, key).map_or(0, <[RowId]>::len)
            }
            _ => table.len(),
        };
        let join = match filed.checks.iter().find_map(|c| equi_join_key(c, ti)) {
            Some(k) if outer_rows <= fetched && table.has_index(k.inner_col) => Join::Index(k),
            Some(k) => Join::Hash(k),
            None => Join::NestedLoop,
        };
        // Matches per outer row: at most what the table's own path fetches,
        // and on an indexed join column about one bucket.
        let fanout = match join {
            Join::Index(k) | Join::Hash(k) => {
                table.index_keys(k.inner_col).map_or(fetched, |keys| {
                    fetched.min(table.len().div_ceil(keys.max(1)))
                })
            }
            Join::NestedLoop => fetched,
        };
        outer_rows = outer_rows.saturating_mul(fanout);
        steps.push(Step {
            table,
            filed,
            access,
            join,
        });
    }
    Ok(steps)
}

/// Run the scans and joins. Returns the joined combinations flattened:
/// `steps.len()` source rows per combination, in FROM order.
fn run<'a>(steps: &[Step<'a>], params: &[Value], stats: &mut ExecStats) -> Vec<&'a Row> {
    let mut joined: Vec<&'a Row> = Vec::new();
    let mut combos = 1usize; // the one empty combination
    for (ti, step) in steps.iter().enumerate() {
        let mut produced = 0u64;
        let next = if ti == 0 {
            // The first table joins the one empty combination, and no
            // conjunct is checked there: what it fetches is the result.
            let mut next = Vec::with_capacity(match step.access {
                AccessPath::IndexProbe { column, key } => {
                    step.table.index_lookup(column, key).map_or(0, <[RowId]>::len)
                }
                _ => 0,
            });
            fetch(step.table, step.access, &step.filed.local, params, stats, |_, row| {
                next.push(row)
            });
            produced = next.len() as u64;
            next
        } else {
            let mut fetched = Vec::new();
            if !matches!(step.join, Join::Index(_)) {
                fetch(step.table, step.access, &step.filed.local, params, stats, |_, row| {
                    fetched.push(row)
                });
            }
            let mut build: HashMap<&Value, Vec<&'a Row>> = HashMap::new();
            if let Join::Hash(k) = step.join {
                for row in &fetched {
                    build.entry(&row[k.inner_col]).or_default().push(row);
                }
            }
            let mut next: Vec<&'a Row> = Vec::with_capacity(combos * (ti + 1));
            for outer in 0..combos {
                let combo = &joined[outer * ti..(outer + 1) * ti];
                // Append `combo + row`; keep it only if every conjunct that
                // became checkable at this step holds (that includes the
                // join conjunct itself: a cheap re-check that keeps Int/Float
                // edge semantics identical to eval).
                let mut emit = |row: &'a Row| {
                    produced += 1;
                    let at = next.len();
                    next.extend_from_slice(combo);
                    next.push(row);
                    if !step.filed.checks.iter().all(|p| p.holds(&next[at..], params)) {
                        next.truncate(at);
                    }
                };
                // A NULL join key matches nothing.
                let key = |k: EquiKey| Some(&combo[k.outer.0][k.outer.1]).filter(|v| !v.is_null());
                match step.join {
                    Join::NestedLoop => fetched.iter().for_each(|row| emit(row)),
                    Join::Hash(k) => {
                        let matches = key(k).and_then(|v| build.get(v));
                        matches.into_iter().flatten().for_each(|row| emit(row));
                    }
                    Join::Index(k) => {
                        let rids = key(k).and_then(|v| step.table.index_lookup(k.inner_col, v));
                        for rid in rids.into_iter().flatten() {
                            let row = step.table.get(*rid).expect("index points at live row");
                            stats.index_probes += 1;
                            if holds(&step.filed.local, row, params) {
                                emit(row);
                            }
                        }
                    }
                }
            }
            next
        };
        combos = next.len() / (ti + 1);
        // Joins count what they produced before the checks; a lone table
        // counts its filtered rows.
        if ti > 0 || steps.len() == 1 {
            stats.rows_joined += produced;
        }
        joined = next;
    }
    joined
}

/// ORDER BY over source-row combinations: the keys, then the full content.
fn order_combos(keys: &[(BoundExpr, bool)], a: &[&Row], b: &[&Row], params: &[Value]) -> Ordering {
    for (k, asc) in keys {
        let ord = k.operand(a, params).cmp(&k.operand(b, params));
        let ord = if *asc { ord } else { ord.reverse() };
        if !ord.is_eq() {
            return ord;
        }
    }
    // Tie-break on the full source-row content so an ordered result is a
    // pure function of the row multiset: physical slot order — which shifts
    // when a rollback re-appends deleted rows — must never decide which of
    // two key-tied rows a LIMIT keeps.
    a.iter()
        .flat_map(|r| r.iter())
        .cmp(b.iter().flat_map(|r| r.iter()))
}

/// Drop every row equal to an earlier one.
fn dedupe(rows: &mut Vec<Row>) {
    let keep: Vec<bool> = {
        let mut seen = HashSet::with_capacity(rows.len());
        rows.iter().map(|r| seen.insert(r.as_slice())).collect()
    };
    let mut keep = keep.into_iter();
    rows.retain(|_| keep.next().unwrap_or(true));
}

/// Execute a SELECT against the catalog.
pub fn execute_select(
    catalog: &Catalog,
    select: &Select,
    params: &[Value],
    stats: &mut ExecStats,
) -> DbResult<QueryResult> {
    PreparedSelect::new(catalog, select, params)?.execute(catalog, select, params, stats)
}

fn is_aggregate(select: &Select) -> bool {
    !select.group_by.is_empty()
        || select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.has_aggregate()))
}

/// The plan [`execute_select`] would run, as text, without running it. Used
/// by tests to pin planner decisions and by users for diagnostics: one line
/// per FROM table (access path, binding, pushed-down conjunct count) plus the
/// join kind of every table after the first.
pub fn explain_select(catalog: &Catalog, select: &Select, params: &[Value]) -> DbResult<String> {
    let (_, filed) = prepare_from_where(catalog, select, params)?;
    let mut out = String::new();
    for (ti, (step, tref)) in plan_steps(catalog, select, &filed, params)?
        .iter()
        .zip(&select.from)
        .enumerate()
    {
        let (how, column) = match (&step.join, &step.access) {
            (Join::Index(k), _) => ("INDEX PROBE", Some(k.inner_col)),
            (_, AccessPath::SeqScan) => ("SEQ SCAN", None),
            (_, AccessPath::IndexProbe { column, .. }) => ("INDEX PROBE", Some(*column)),
            (_, AccessPath::RangeScan { column, .. }) => ("RANGE SCAN", Some(*column)),
        };
        out.push_str(how);
        if let Some(c) = column {
            out.push_str(&format!(" ({})", step.table.schema().column(c).name));
        }
        out.push_str(&format!(
            " {} [{} local predicate(s)]\n",
            tref.binding(),
            step.filed.local.len()
        ));
        if ti > 0 {
            out.push_str(match step.join {
                Join::Index(_) => "  joined via INDEX JOIN\n",
                Join::Hash(_) => "  joined via HASH JOIN\n",
                Join::NestedLoop => "  joined via NESTED LOOP\n",
            });
        }
    }
    if is_aggregate(select) {
        out.push_str("AGGREGATE\n");
    }
    if !select.order_by.is_empty() {
        out.push_str("SORT\n");
    }
    if select.limit.is_some() {
        out.push_str("LIMIT\n");
    }
    Ok(out)
}

/// The rows of `table` an UPDATE or DELETE with this WHERE clause touches,
/// in storage order: the single-table case of the SELECT planner.
pub(crate) fn find_rows(
    table: &Table,
    ctx: &BindContext,
    where_clause: Option<&Expr>,
    params: &[Value],
    stats: &mut ExecStats,
) -> DbResult<Vec<RowId>> {
    let local = where_clause
        .iter()
        .flat_map(|w| w.conjuncts())
        .map(|c| bind(c, ctx, params))
        .collect::<DbResult<Vec<_>>>()?;
    let access = choose_access_path(table, &local, params);
    let mut rids = Vec::new();
    fetch(table, access, &local, params, stats, |rid, _| rids.push(rid));
    Ok(rids)
}

/// Pick the access path for a table given the conjuncts over it alone: a
/// hash index for `col = constant`, else an ordered index for an equality or
/// range conjunct, else a scan.
fn choose_access_path<'v>(table: &Table, local: &'v [BoundExpr], params: &'v [Value]) -> AccessPath<'v> {
    for ((_, column), key) in local.iter().filter_map(const_eq) {
        if let Some(key) = key.constant(params).filter(|_| table.has_index(column)) {
            return AccessPath::IndexProbe { column, key };
        }
    }
    for p in local {
        if let Some((column, low, high)) = const_range_bounds(p, params) {
            if table.has_range_index(column) {
                return AccessPath::RangeScan { column, low, high };
            }
        }
    }
    AccessPath::SeqScan
}

/// Do all of a table's pushed-down conjuncts hold for `row`?
fn holds(local: &[BoundExpr], row: &Row, params: &[Value]) -> bool {
    local
        .iter()
        .all(|p| p.holds(std::slice::from_ref(&row), params))
}

/// Fetch through `access` the rows of `table` for which `local` holds, in
/// storage order, handing each to `emit`.
fn fetch<'a>(
    table: &'a Table,
    access: AccessPath<'_>,
    local: &[BoundExpr],
    params: &[Value],
    stats: &mut ExecStats,
    mut emit: impl FnMut(RowId, &'a Row),
) {
    let mut from_index = |rids: &[RowId], stats: &mut ExecStats| {
        stats.index_probes += rids.len() as u64;
        for &rid in rids {
            let row = table.get(rid).expect("index points at live row");
            if holds(local, row, params) {
                emit(rid, row);
            }
        }
    };
    match access {
        AccessPath::SeqScan => {
            stats.seq_scans += 1;
            stats.rows_scanned += table.len() as u64;
            for (rid, row) in table.scan() {
                if holds(local, row, params) {
                    emit(rid, row);
                }
            }
        }
        AccessPath::IndexProbe { column, key } => {
            from_index(table.index_lookup(column, key).unwrap_or(&[]), stats)
        }
        AccessPath::RangeScan { column, low, high } => from_index(
            &table.range_lookup(column, low, high).unwrap_or_default(),
            stats,
        ),
    }
}

impl BoundExpr {
    /// The value of a literal or a `$n` marker.
    fn constant<'a>(&'a self, params: &'a [Value]) -> Option<&'a Value> {
        match self {
            BoundExpr::Literal(v) => Some(v),
            BoundExpr::Param(i) => i.checked_sub(1).and_then(|at| params.get(at)),
            _ => None,
        }
    }

    fn is_constant(&self) -> bool {
        matches!(self, BoundExpr::Literal(_) | BoundExpr::Param(_))
    }
}

/// If `p` is a range comparison `col CMP constant` (or BETWEEN), return the
/// column and the bounds it implies.
fn const_range_bounds<'v>(
    p: &'v BoundExpr,
    params: &'v [Value],
) -> Option<(usize, Bound<&'v Value>, Bound<&'v Value>)> {
    match p {
        BoundExpr::Cmp { left, op, right } => {
            let (column, lit, op) = match (&**left, &**right) {
                (BoundExpr::Column { column, .. }, k) => (*column, k.constant(params)?, *op),
                (k, BoundExpr::Column { column, .. }) => (*column, k.constant(params)?, op.flip()),
                _ => return None,
            };
            let (low, high) = match op {
                CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(lit)),
                CmpOp::LtEq => (Bound::Unbounded, Bound::Included(lit)),
                CmpOp::Gt => (Bound::Excluded(lit), Bound::Unbounded),
                CmpOp::GtEq => (Bound::Included(lit), Bound::Unbounded),
                CmpOp::Eq => (Bound::Included(lit), Bound::Included(lit)),
                CmpOp::NotEq => return None,
            };
            Some((column, low, high))
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match &**expr {
            BoundExpr::Column { column, .. } => Some((
                *column,
                Bound::Included(low.constant(params)?),
                Bound::Included(high.constant(params)?),
            )),
            _ => None,
        },
        _ => None,
    }
}

/// The two sides of `p` if it is an equality.
fn eq_sides(p: &BoundExpr) -> Option<(&BoundExpr, &BoundExpr)> {
    match p {
        BoundExpr::Cmp { left, op, right } if *op == CmpOp::Eq => Some((left, right)),
        _ => None,
    }
}

/// If `p` is `column = constant` (either way round), return the column and
/// the constant (a literal or a `$n` marker).
fn const_eq(p: &BoundExpr) -> Option<(ColumnAt, &BoundExpr)> {
    match eq_sides(p)? {
        (BoundExpr::Column { table, column }, k) | (k, BoundExpr::Column { table, column })
            if k.is_constant() =>
        {
            Some(((*table, *column), k))
        }
        _ => None,
    }
}

/// If `p` is `column = column`, return both sides.
fn column_eq(p: &BoundExpr) -> Option<(ColumnAt, ColumnAt)> {
    match eq_sides(p)? {
        (
            BoundExpr::Column { table, column },
            BoundExpr::Column {
                table: t2,
                column: c2,
            },
        ) => Some(((*table, *column), (*t2, *c2))),
        _ => None,
    }
}

/// If `p` is an equi-join between the new table `ti` and an earlier one,
/// return its key.
fn equi_join_key(p: &BoundExpr, ti: usize) -> Option<EquiKey> {
    let (a, b) = column_eq(p)?;
    let (inner, outer) = if a.0 == ti { (a, b) } else { (b, a) };
    (inner.0 == ti && outer.0 < ti).then_some(EquiKey {
        outer,
        inner_col: inner.1,
    })
}

/// Visit the FROM position of every column reference in `e`.
fn walk_columns(e: &mut BoundExpr, f: &mut impl FnMut(&mut usize)) {
    match e {
        BoundExpr::Column { table, .. } => f(table),
        BoundExpr::Literal(_) | BoundExpr::Param(_) => {}
        BoundExpr::Cmp { left, right, .. } | BoundExpr::Arith { left, right, .. } => {
            walk_columns(left, f);
            walk_columns(right, f);
        }
        BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
            walk_columns(a, f);
            walk_columns(b, f);
        }
        BoundExpr::Not(expr) | BoundExpr::IsNull { expr, .. } => walk_columns(expr, f),
        BoundExpr::Between {
            expr, low, high, ..
        } => {
            walk_columns(expr, f);
            walk_columns(low, f);
            walk_columns(high, f);
        }
        BoundExpr::InList {
            expr, list: rest, ..
        } => {
            walk_columns(expr, f);
            rest.iter_mut().for_each(|e| walk_columns(e, f));
        }
        BoundExpr::Like { expr, pattern, .. } => {
            walk_columns(expr, f);
            walk_columns(pattern, f);
        }
        BoundExpr::Func { args, .. } => args.iter_mut().for_each(|e| walk_columns(e, f)),
    }
}

/// Bind a plain (non-aggregate) projection and its ORDER BY keys, and name
/// its output columns.
fn prepare_plain(
    select: &Select,
    ctx: &BindContext,
    params: &[Value],
) -> DbResult<(Vec<String>, Projection)> {
    let mut columns = Vec::new();
    let mut items = Vec::new();
    for item in &select.items {
        let stars = match item {
            SelectItem::Star => 0..ctx.tables.len(),
            SelectItem::QualifiedStar(name) => {
                let ti = ctx
                    .tables
                    .iter()
                    .position(|(n, _)| n.eq_ignore_ascii_case(name))
                    .ok_or_else(|| DbError::UnknownTable(name.clone()))?;
                ti..ti + 1
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                items.push(Proj::Expr(bind_marked(expr, ctx, params)?));
                continue;
            }
        };
        for ti in stars {
            for (ci, col) in ctx.tables[ti].1.columns().iter().enumerate() {
                columns.push(col.name.clone());
                items.push(Proj::Col(ti, ci));
            }
        }
    }
    let order = select
        .order_by
        .iter()
        .map(|k| Ok((bind_marked(&k.expr, ctx, params)?, k.ascending)))
        .collect::<DbResult<_>>()?;
    Ok((
        columns,
        Projection::Plain { items, order },
    ))
}

/// Position of a grouped column in the output row, if projected.
fn output_column_index(select: &Select, ctx: &BindContext, target: &ColumnRef) -> Option<usize> {
    let t = ctx.resolve(target).ok()?;
    for (i, item) in select.items.iter().enumerate() {
        if let SelectItem::Expr {
            expr: Expr::Column(c),
            ..
        } = item
        {
            if ctx.resolve(c).ok() == Some(t) {
                return Some(i);
            }
        }
    }
    None
}

/// Bind a GROUP BY / aggregate projection, its HAVING clause and its ORDER
/// BY keys, and name its output columns.
fn prepare_aggregate(
    select: &Select,
    ctx: &BindContext,
    params: &[Value],
) -> DbResult<(Vec<String>, Projection)> {
    // Resolve group keys.
    let group_cols: Vec<ColumnAt> = select
        .group_by
        .iter()
        .map(|c| ctx.resolve(c))
        .collect::<DbResult<_>>()?;

    // Classify items: each is either a grouped column or an aggregate.
    let mut columns = Vec::with_capacity(select.items.len());
    let mut items = Vec::with_capacity(select.items.len());
    for item in &select.items {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                match expr {
                    Expr::Agg {
                        func,
                        arg,
                        distinct,
                    } => items.push(AggItem::Agg {
                        func: *func,
                        arg: match arg {
                            Some(a) => Some(bind_marked(a, ctx, params)?),
                            None => None,
                        },
                        distinct: *distinct,
                    }),
                    Expr::Column(c) => {
                        let rc = ctx.resolve(c)?;
                        let gi = group_cols.iter().position(|g| *g == rc).ok_or_else(|| {
                            DbError::Unsupported(format!(
                                "column {c} must appear in GROUP BY or an aggregate"
                            ))
                        })?;
                        items.push(AggItem::GroupKey(gi));
                    }
                    _ => {
                        return Err(DbError::Unsupported(
                            "non-column, non-aggregate select item in aggregate query".into(),
                        ))
                    }
                }
            }
            _ => {
                return Err(DbError::Unsupported(
                    "* projection in aggregate query".into(),
                ))
            }
        }
    }

    // HAVING: evaluated over the projected output. Every aggregate or
    // column term in the predicate must match a projected item (textually
    // or by alias); matched terms become references to the output columns.
    let having = match &select.having {
        Some(having) => {
            let rewritten = having.transform(&|node| {
                let text = node.to_string();
                for (i, item) in select.items.iter().enumerate() {
                    if let SelectItem::Expr { expr, alias } = item {
                        if expr.to_string() == text
                            || alias
                                .as_deref()
                                .is_some_and(|a| a.eq_ignore_ascii_case(&text))
                        {
                            return Some(Expr::Column(ColumnRef {
                                table: None,
                                column: columns[i].clone(),
                            }));
                        }
                    }
                }
                None
            });
            if rewritten.has_aggregate() {
                return Err(DbError::Unsupported(
                    "HAVING terms must be projected in the SELECT list".into(),
                ));
            }
            let out_schema = Arc::new(crate::schema::Schema::new(
                columns
                    .iter()
                    .map(|c| {
                        crate::schema::ColumnDef::new(c.clone(), crate::schema::ColType::Float)
                    })
                    .collect(),
            ));
            let ctx = BindContext::new(vec![("<output>".to_string(), out_schema)]);
            Some(bind_marked(&rewritten, &ctx, params)?)
        }
        None => None,
    };

    // ORDER BY: keys restricted to grouped columns, sorted on output rows.
    let order = select
        .order_by
        .iter()
        .map(|k| match &k.expr {
            Expr::Column(c) => output_column_index(select, ctx, c)
                .map(|i| (i, k.ascending))
                .ok_or_else(|| {
                    DbError::Unsupported(
                        "ORDER BY in aggregate query must name a grouped column".into(),
                    )
                }),
            _ => Err(DbError::Unsupported(
                "ORDER BY expression in aggregate query".into(),
            )),
        })
        .collect::<DbResult<_>>()?;
    Ok((
        columns,
        Projection::Aggregate {
            group_cols,
            items,
            having,
            order,
        },
    ))
}

/// Group the joined combinations and compute one output row per group,
/// in order of each group's first combination; then apply HAVING.
fn aggregate(
    group_cols: &[ColumnAt],
    items: &[AggItem],
    having: Option<&BoundExpr>,
    joined: &[&Row],
    width: usize,
    params: &[Value],
) -> Vec<Row> {
    let make_states = || -> Vec<AggState> {
        items
            .iter()
            .filter_map(|i| match i {
                AggItem::Agg { func, distinct, .. } => Some(AggState::new(*func, *distinct)),
                AggItem::GroupKey(_) => None,
            })
            .collect()
    };
    // Each group as its first combination (which spells its key) and its
    // states. With no GROUP BY there is exactly one (possibly empty) group.
    let mut groups: Vec<(&[&Row], Vec<AggState>)> = Vec::new();
    let mut index: HashMap<Vec<&Value>, usize> = HashMap::new();
    if group_cols.is_empty() {
        groups.push((&[], make_states()));
    }
    let mut key: Vec<&Value> = Vec::with_capacity(group_cols.len());
    for combo in joined.chunks(width) {
        let gi = if group_cols.is_empty() {
            0
        } else {
            key.clear();
            key.extend(group_cols.iter().map(|(t, c)| &combo[*t][*c]));
            match index.get(&key) {
                Some(&gi) => gi,
                None => {
                    groups.push((combo, make_states()));
                    index.insert(key.clone(), groups.len() - 1);
                    groups.len() - 1
                }
            }
        };
        let states = &mut groups[gi].1;
        let aggs = items.iter().filter_map(|i| match i {
            AggItem::Agg { arg, .. } => Some(arg),
            AggItem::GroupKey(_) => None,
        });
        for (state, arg) in states.iter_mut().zip(aggs) {
            match arg {
                Some(e) => state.update(Some(&e.operand(combo, params))),
                None => state.update(None),
            }
        }
    }

    let mut rows: Vec<Row> = groups
        .iter()
        .map(|(first, states)| {
            let mut states = states.iter();
            items
                .iter()
                .map(|i| match i {
                    AggItem::GroupKey(gi) => {
                        let (t, c) = group_cols[*gi];
                        first[t][c].clone()
                    }
                    AggItem::Agg { .. } => states.next().expect("one state per aggregate").finish(),
                })
                .collect()
        })
        .collect();
    if let Some(pred) = having {
        rows.retain(|row| pred.holds(&[row], params));
    }
    rows
}
