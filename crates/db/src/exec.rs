//! Query planning and execution.
//!
//! One access-path planner serves SELECT, UPDATE and DELETE. [`plan_select`]
//! binds each WHERE conjunct once, files it under the FROM table that
//! completes it, propagates constants across equi-join equalities
//! (`a.x = $1 ∧ a.x = b.y ⇒ b.y = $1`) and fixes, per FROM table, an
//! [`AccessPath`] and a join kind: index nested-loop when the join column is
//! hash-indexed and the outer side is estimated no larger than what the
//! table's own access path would fetch, else a hash join on an equi-join
//! conjunct, else a filtered nested loop. `Plan::run` only dispatches on
//! those kinds, and [`explain_select`] prints the same plan. UPDATE and
//! DELETE find their rows through [`find_rows`], the single-table case of the
//! same classification. Every access path emits rows in storage order, so a
//! result — including the order of an un-`ORDER`ed one — does not depend on
//! which indexes exist.

use crate::error::{DbError, DbResult};
use crate::eval::{bind, AggState, BindContext, BoundExpr};
use crate::sql::ast::{CmpOp, ColumnRef, Expr, Select, SelectItem};
use crate::table::{Catalog, Row, RowId, Table};
use crate::value::Value;
use std::collections::HashMap;
use std::ops::Bound;

/// Result set of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
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

/// How one table's rows are fetched.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full sequential scan.
    SeqScan,
    /// Hash-index probe: rows whose `column` equals `key`.
    IndexProbe {
        /// Column position the index covers.
        column: usize,
        /// The constant the column is compared with.
        key: Value,
    },
    /// Ordered-index scan of `column` within `bounds`.
    RangeScan {
        /// Column position the index covers.
        column: usize,
        /// The interval the conjunct implies.
        bounds: RangeBounds,
    },
}

/// Owned range bounds for an ordered-index scan.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeBounds {
    /// Lower bound.
    pub low: Bound<Value>,
    /// Upper bound.
    pub high: Bound<Value>,
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

/// One FROM table's part of a plan.
struct Step<'a> {
    table: &'a Table,
    /// Conjuncts over this table alone, rebased to table 0 so they evaluate
    /// against the bare row; includes propagated constants.
    local: Vec<BoundExpr>,
    access: AccessPath,
    join: Join,
    /// Multi-table conjuncts whose last table is this one.
    checks: Vec<BoundExpr>,
}

/// The plan of one SELECT: what [`execute_select`] runs and
/// [`explain_select`] prints.
struct Plan<'a> {
    ctx: BindContext,
    steps: Vec<Step<'a>>,
}

/// Bind and classify the WHERE clause of `select` and choose access paths
/// and join kinds in FROM order.
fn plan_select<'a>(catalog: &'a Catalog, select: &Select, params: &[Value]) -> DbResult<Plan<'a>> {
    let mut tables: Vec<&Table> = Vec::with_capacity(select.from.len());
    let mut ctx_tables = Vec::with_capacity(select.from.len());
    for tref in &select.from {
        let t = catalog.require(&tref.table)?;
        // Duplicate binding names would make resolution ambiguous.
        if ctx_tables
            .iter()
            .any(|(n, _): &(String, _)| n.eq_ignore_ascii_case(tref.binding()))
        {
            return Err(DbError::Parse(format!(
                "duplicate table binding '{}' in FROM",
                tref.binding()
            )));
        }
        tables.push(t);
        ctx_tables.push((tref.binding().to_string(), t.schema().clone()));
    }
    let ctx = BindContext::new(ctx_tables);

    let mut conjuncts = Vec::new();
    for c in select.where_clause.iter().flat_map(|w| w.conjuncts()) {
        conjuncts.push(bind(c, &ctx, params)?);
    }
    // Constant propagation: a column equated both with a literal and with
    // another column fixes that column too (SQL equality is transitive).
    // Each column gains at most one derived conjunct, so this terminates.
    let mut consts: Vec<(ColumnAt, Value)> = conjuncts
        .iter()
        .filter_map(|c| const_eq(c).map(|(col, v)| (col, v.clone())))
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
                    right: Box::new(BoundExpr::Literal(key.clone())),
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
    let mut filed: Vec<(Vec<BoundExpr>, Vec<BoundExpr>)> =
        tables.iter().map(|_| Default::default()).collect();
    for mut c in conjuncts {
        let mut refs = Vec::new();
        walk_columns(&mut c, &mut |t| refs.push(*t));
        refs.sort_unstable();
        refs.dedup();
        let at = refs.last().copied().unwrap_or(0);
        if refs.len() > 1 {
            filed[at].1.push(c);
        } else {
            walk_columns(&mut c, &mut |t| *t = 0);
            filed[at].0.push(c);
        }
    }

    let mut steps = Vec::with_capacity(tables.len());
    let mut outer_rows = 1usize; // estimated combinations joined so far
    for (ti, (table, (local, checks))) in tables.into_iter().zip(filed).enumerate() {
        let access = choose_access_path(table, &local);
        let fetched = match &access {
            AccessPath::IndexProbe { column, key } => {
                table.index_lookup(*column, key).map_or(0, <[RowId]>::len)
            }
            _ => table.len(),
        };
        let join = match checks.iter().find_map(|c| equi_join_key(c, ti)) {
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
            local,
            access,
            join,
            checks,
        });
    }
    Ok(Plan { ctx, steps })
}

impl<'a> Plan<'a> {
    /// Run the scans and joins. Returns the joined combinations flattened:
    /// `steps.len()` source rows per combination, in FROM order.
    fn run(&self, stats: &mut ExecStats) -> Vec<&'a Row> {
        let mut joined: Vec<&'a Row> = Vec::new();
        let mut combos = 1usize; // the one empty combination
        for (ti, step) in self.steps.iter().enumerate() {
            let fetched = match step.join {
                Join::Index(_) => Vec::new(),
                _ => scan_with_predicates(step.table, &step.access, &step.local, stats),
            };
            let mut build: HashMap<&Value, Vec<&'a Row>> = HashMap::new();
            if let Join::Hash(k) = step.join {
                for (_, row) in &fetched {
                    build.entry(&row[k.inner_col]).or_default().push(row);
                }
            }
            let mut next: Vec<&'a Row> = Vec::new();
            let mut produced = 0u64;
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
                    if !step.checks.iter().all(|p| p.eval_predicate(&next[at..])) {
                        next.truncate(at);
                    }
                };
                // A NULL join key matches nothing.
                let key = |k: EquiKey| Some(&combo[k.outer.0][k.outer.1]).filter(|v| !v.is_null());
                match step.join {
                    Join::NestedLoop => fetched.iter().for_each(|(_, row)| emit(row)),
                    Join::Hash(k) => {
                        let matches = key(k).and_then(|v| build.get(v));
                        matches.into_iter().flatten().for_each(|row| emit(row));
                    }
                    Join::Index(k) => {
                        let rids = key(k).and_then(|v| step.table.index_lookup(k.inner_col, v));
                        for rid in rids.into_iter().flatten() {
                            let row = step.table.get(*rid).expect("index points at live row");
                            stats.index_probes += 1;
                            if holds(&step.local, row) {
                                emit(row);
                            }
                        }
                    }
                }
            }
            combos = next.len() / (ti + 1);
            // Joins count what they produced before the checks; a lone table
            // counts its filtered rows.
            if ti > 0 || self.steps.len() == 1 {
                stats.rows_joined += produced;
            }
            joined = next;
        }
        joined
    }

    /// One line per FROM table (access path, binding, pushed-down conjunct
    /// count) plus the join kind of every table after the first.
    fn describe(&self) -> String {
        let mut out = String::new();
        for (ti, (step, (binding, _))) in self.steps.iter().zip(&self.ctx.tables).enumerate() {
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
                " {binding} [{} local predicate(s)]\n",
                step.local.len()
            ));
            if ti > 0 {
                out.push_str(match step.join {
                    Join::Index(_) => "  joined via INDEX JOIN\n",
                    Join::Hash(_) => "  joined via HASH JOIN\n",
                    Join::NestedLoop => "  joined via NESTED LOOP\n",
                });
            }
        }
        out
    }
}

/// Execute a SELECT against the catalog.
pub fn execute_select(
    catalog: &Catalog,
    select: &Select,
    params: &[Value],
    stats: &mut ExecStats,
) -> DbResult<QueryResult> {
    let plan = plan_select(catalog, select, params)?;
    let joined = plan.run(stats);
    let combos: Vec<&[&Row]> = joined.chunks(plan.steps.len()).collect();
    let ctx = &plan.ctx;

    // Aggregate or plain projection.
    let aggregate = is_aggregate(select);
    if select.having.is_some() && !aggregate {
        return Err(DbError::Unsupported(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    }
    let (columns, mut rows) = if aggregate {
        project_aggregate(select, ctx, params, &combos)?
    } else {
        project_plain(select, ctx, params, combos)?
    };

    if select.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }

    // Plain queries sort their source rows in project_plain (keys need not
    // be projected); aggregates sort output rows, keys restricted to
    // group-by columns.
    if !select.order_by.is_empty() && aggregate {
        let key_idxs: Vec<(usize, bool)> = select
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
        rows.sort_by(|a, b| {
            for (i, asc) in &key_idxs {
                let ord = a[*i].cmp(&b[*i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if !ord.is_eq() {
                    return ord;
                }
            }
            // Storage-independent tie-break (see project_plain).
            a.cmp(b)
        });
    }

    if let Some(n) = select.limit {
        rows.truncate(n as usize);
    }

    stats.rows_output += rows.len() as u64;
    Ok(QueryResult { columns, rows })
}

fn is_aggregate(select: &Select) -> bool {
    !select.group_by.is_empty()
        || select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.has_aggregate()))
}

/// The plan [`execute_select`] would run, as text, without running it. Used
/// by tests to pin planner decisions and by users for diagnostics.
pub fn explain_select(catalog: &Catalog, select: &Select, params: &[Value]) -> DbResult<String> {
    let mut out = plan_select(catalog, select, params)?.describe();
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
/// in storage order: the single-table case of [`plan_select`].
pub(crate) fn find_rows<'a>(
    table: &'a Table,
    ctx: &BindContext,
    where_clause: Option<&Expr>,
    params: &[Value],
    stats: &mut ExecStats,
) -> DbResult<Vec<(RowId, &'a Row)>> {
    let local = where_clause
        .iter()
        .flat_map(|w| w.conjuncts())
        .map(|c| bind(c, ctx, params))
        .collect::<DbResult<Vec<_>>>()?;
    let access = choose_access_path(table, &local);
    Ok(scan_with_predicates(table, &access, &local, stats))
}

/// Pick the access path for a table given the conjuncts over it alone: a
/// hash index for `col = literal`, else an ordered index for an equality or
/// range conjunct, else a scan.
fn choose_access_path(table: &Table, local: &[BoundExpr]) -> AccessPath {
    for ((_, column), key) in local.iter().filter_map(const_eq) {
        if table.has_index(column) {
            let key = key.clone();
            return AccessPath::IndexProbe { column, key };
        }
    }
    for (column, bounds) in local.iter().filter_map(const_range_bounds) {
        if table.has_range_index(column) {
            return AccessPath::RangeScan { column, bounds };
        }
    }
    AccessPath::SeqScan
}

/// Do all of a table's pushed-down conjuncts hold for `row`?
fn holds(local: &[BoundExpr], row: &Row) -> bool {
    local
        .iter()
        .all(|p| p.eval_predicate(std::slice::from_ref(&row)))
}

/// Fetch through `access` the rows of `table` for which `local` holds, in
/// storage order.
fn scan_with_predicates<'a>(
    table: &'a Table,
    access: &AccessPath,
    local: &[BoundExpr],
    stats: &mut ExecStats,
) -> Vec<(RowId, &'a Row)> {
    let rids = match access {
        AccessPath::SeqScan => {
            stats.seq_scans += 1;
            stats.rows_scanned += table.len() as u64;
            return table.scan().filter(|(_, row)| holds(local, row)).collect();
        }
        AccessPath::IndexProbe { column, key } => {
            table.index_lookup(*column, key).unwrap_or(&[]).to_vec()
        }
        AccessPath::RangeScan { column, bounds } => table
            .range_lookup(*column, bounds.low.as_ref(), bounds.high.as_ref())
            .unwrap_or_default(),
    };
    stats.index_probes += rids.len() as u64;
    rids.into_iter()
        .map(|rid| (rid, table.get(rid).expect("index points at live row")))
        .filter(|(_, row)| holds(local, row))
        .collect()
}

/// If `p` is a range comparison `col CMP literal` (or BETWEEN), return the
/// column and the bounds it implies.
fn const_range_bounds(p: &BoundExpr) -> Option<(usize, RangeBounds)> {
    match p {
        BoundExpr::Cmp { left, op, right } => {
            let (column, lit, op) = match (&**left, &**right) {
                (BoundExpr::Column { column, .. }, BoundExpr::Literal(v)) => (*column, v, *op),
                (BoundExpr::Literal(v), BoundExpr::Column { column, .. }) => {
                    (*column, v, op.flip())
                }
                _ => return None,
            };
            let (low, high) = match op {
                CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(lit.clone())),
                CmpOp::LtEq => (Bound::Unbounded, Bound::Included(lit.clone())),
                CmpOp::Gt => (Bound::Excluded(lit.clone()), Bound::Unbounded),
                CmpOp::GtEq => (Bound::Included(lit.clone()), Bound::Unbounded),
                CmpOp::Eq => (Bound::Included(lit.clone()), Bound::Included(lit.clone())),
                CmpOp::NotEq => return None,
            };
            Some((column, RangeBounds { low, high }))
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (&**expr, &**low, &**high) {
            (BoundExpr::Column { column, .. }, BoundExpr::Literal(lo), BoundExpr::Literal(hi)) => {
                let (low, high) = (Bound::Included(lo.clone()), Bound::Included(hi.clone()));
                Some((*column, RangeBounds { low, high }))
            }
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

/// If `p` is `column = literal` (either way round), return both.
fn const_eq(p: &BoundExpr) -> Option<(ColumnAt, &Value)> {
    match eq_sides(p)? {
        (BoundExpr::Column { table, column }, BoundExpr::Literal(v))
        | (BoundExpr::Literal(v), BoundExpr::Column { table, column }) => {
            Some(((*table, *column), v))
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
        BoundExpr::Literal(_) => {}
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

/// Plain (non-aggregate) projection, including ORDER BY on source rows.
fn project_plain(
    select: &Select,
    ctx: &BindContext,
    params: &[Value],
    mut combos: Vec<&[&Row]>,
) -> DbResult<(Vec<String>, Vec<Row>)> {
    // Expand items into (name, evaluator).
    enum Proj {
        Col(usize, usize, String),
        Expr(BoundExpr, String),
    }
    let mut projs: Vec<Proj> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Star => {
                for (ti, (_, schema)) in ctx.tables.iter().enumerate() {
                    for (ci, col) in schema.columns().iter().enumerate() {
                        projs.push(Proj::Col(ti, ci, col.name.clone()));
                    }
                }
            }
            SelectItem::QualifiedStar(name) => {
                let ti = ctx
                    .tables
                    .iter()
                    .position(|(n, _)| n.eq_ignore_ascii_case(name))
                    .ok_or_else(|| DbError::UnknownTable(name.clone()))?;
                for (ci, col) in ctx.tables[ti].1.columns().iter().enumerate() {
                    projs.push(Proj::Col(ti, ci, col.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.to_string());
                projs.push(Proj::Expr(bind(expr, ctx, params)?, name));
            }
        }
    }

    // ORDER BY on source rows (keys need not be projected).
    if !select.order_by.is_empty() {
        let keys: Vec<(BoundExpr, bool)> = select
            .order_by
            .iter()
            .map(|k| Ok((bind(&k.expr, ctx, params)?, k.ascending)))
            .collect::<DbResult<_>>()?;
        combos.sort_by(|a, b| {
            for (k, asc) in &keys {
                let ka = k.eval(a);
                let kb = k.eval(b);
                let ord = ka.cmp(&kb);
                let ord = if *asc { ord } else { ord.reverse() };
                if !ord.is_eq() {
                    return ord;
                }
            }
            // Tie-break on the full source-row content so an ordered result
            // is a pure function of the row multiset: physical slot order —
            // which shifts when a rollback re-appends deleted rows — must
            // never decide which of two key-tied rows a LIMIT keeps.
            a.iter()
                .flat_map(|r| r.iter())
                .cmp(b.iter().flat_map(|r| r.iter()))
        });
    }

    let columns = projs
        .iter()
        .map(|p| match p {
            Proj::Col(_, _, n) | Proj::Expr(_, n) => n.clone(),
        })
        .collect();
    let rows = combos
        .iter()
        .map(|combo| {
            projs
                .iter()
                .map(|p| match p {
                    Proj::Col(ti, ci, _) => combo[*ti][*ci].clone(),
                    Proj::Expr(e, _) => e.eval(combo),
                })
                .collect()
        })
        .collect();
    Ok((columns, rows))
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

/// GROUP BY / aggregate projection.
fn project_aggregate(
    select: &Select,
    ctx: &BindContext,
    params: &[Value],
    joined: &[&[&Row]],
) -> DbResult<(Vec<String>, Vec<Row>)> {
    // Resolve group keys.
    let group_cols: Vec<(usize, usize)> = select
        .group_by
        .iter()
        .map(|c| ctx.resolve(c))
        .collect::<DbResult<_>>()?;

    // Classify items: each is either a grouped column or an aggregate.
    enum AggItem {
        GroupKey(usize, String), // index into group_cols
        Agg {
            func: crate::sql::ast::AggFunc,
            arg: Option<BoundExpr>,
            distinct: bool,
            name: String,
        },
    }
    let mut items = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.to_string());
                match expr {
                    Expr::Agg {
                        func,
                        arg,
                        distinct,
                    } => items.push(AggItem::Agg {
                        func: *func,
                        arg: match arg {
                            Some(a) => Some(bind(a, ctx, params)?),
                            None => None,
                        },
                        distinct: *distinct,
                        name,
                    }),
                    Expr::Column(c) => {
                        let rc = ctx.resolve(c)?;
                        let gi = group_cols.iter().position(|g| *g == rc).ok_or_else(|| {
                            DbError::Unsupported(format!(
                                "column {c} must appear in GROUP BY or an aggregate"
                            ))
                        })?;
                        items.push(AggItem::GroupKey(gi, name));
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

    // Group. With no GROUP BY there is exactly one (possibly empty) group.
    type Key = Vec<Value>;
    let mut groups: Vec<(Key, Vec<AggState>)> = Vec::new();
    let mut index: HashMap<Key, usize> = HashMap::new();

    let make_states = || -> Vec<AggState> {
        items
            .iter()
            .filter_map(|i| match i {
                AggItem::Agg { func, distinct, .. } => Some(AggState::new(*func, *distinct)),
                _ => None,
            })
            .collect()
    };

    if group_cols.is_empty() {
        groups.push((Vec::new(), make_states()));
        index.insert(Vec::new(), 0);
    }

    for combo in joined {
        let key: Key = group_cols
            .iter()
            .map(|(t, c)| combo[*t][*c].clone())
            .collect();
        let gi = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, make_states()));
            groups.len() - 1
        });
        let states = &mut groups[gi].1;
        let mut si = 0;
        for item in &items {
            if let AggItem::Agg { arg, .. } = item {
                match arg {
                    Some(e) => {
                        let v = e.eval(combo);
                        states[si].update(Some(&v));
                    }
                    None => states[si].update(None),
                }
                si += 1;
            }
        }
    }

    let columns: Vec<String> = items
        .iter()
        .map(|i| match i {
            AggItem::GroupKey(_, n) | AggItem::Agg { name: n, .. } => n.clone(),
        })
        .collect();
    let mut rows: Vec<Row> = groups
        .iter()
        .map(|(key, states)| {
            let mut si = 0;
            items
                .iter()
                .map(|i| match i {
                    AggItem::GroupKey(gi, _) => key[*gi].clone(),
                    AggItem::Agg { .. } => {
                        let v = states[si].finish();
                        si += 1;
                        v
                    }
                })
                .collect()
        })
        .collect();

    // HAVING: evaluated over the projected output. Every aggregate or
    // column term in the predicate must match a projected item (textually
    // or by alias); matched terms become references to the output columns.
    if let Some(having) = &select.having {
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
        let out_schema = std::sync::Arc::new(crate::schema::Schema::new(
            columns
                .iter()
                .map(|c| crate::schema::ColumnDef::new(c.clone(), crate::schema::ColType::Float))
                .collect(),
        ));
        let ctx = BindContext::new(vec![("<output>".to_string(), out_schema)]);
        let pred = bind(&rewritten, &ctx, params)?;
        rows.retain(|row| pred.eval_predicate(&[row]));
    }
    Ok((columns, rows))
}
