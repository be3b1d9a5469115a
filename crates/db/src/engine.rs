//! The top-level [`Database`] object: parses SQL, dispatches to the
//! executor, maintains the update log, and accumulates statistics.

use crate::error::{DbError, DbResult};
use crate::eval::{bind, BindContext};
use crate::exec::{execute_select, find_rows, ExecStats, PreparedSelect, QueryResult};
use crate::log::{LogOp, Lsn, UpdateLog};
use crate::schema::{ColumnDef, Schema};
use crate::sql::ast::{Expr, Insert, Select, Statement};
use crate::sql::parser::parse;
use crate::table::{Catalog, Row, Table};
use crate::value::Value;
use crate::stripe::Striped;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Parameterised statement texts the statement cache holds at most. A site
/// has a handful of servlet templates; when more distinct texts than this
/// arrive the cache starts over rather than track recency.
const STATEMENT_CACHE_CAPACITY: usize = 64;

const POISONED: &str = "statement cache lock poisoned: a thread panicked while holding it";

/// A statement the cache keeps, with the last plan made for it if it is a
/// SELECT: the plan a statement prepared from it starts with.
#[derive(Debug)]
struct CachedStatement {
    statement: Statement,
    /// Replaced whenever a prepared statement makes its plan again: on its
    /// first run, or when a FROM table's schema has changed since the plan
    /// was bound (DDL never touches the parse).
    prepared: RwLock<Option<Arc<PreparedSelect>>>,
}

/// A parameterised statement a connection keeps (the JDBC
/// `PreparedStatement`): the statement cache's parse, and a plan of the
/// connection's own. Made by [`Database::prepare`], run by
/// [`Database::query_prepared`]; [`Database::query_with_params`] makes one
/// for the call.
#[derive(Debug)]
pub struct PreparedStatement {
    cached: Arc<CachedStatement>,
    plan: Option<Arc<PreparedSelect>>,
}

impl PreparedStatement {
    /// A statement prepared from the cache's entry, starting with the last
    /// plan made for it.
    fn from_cache(cached: Arc<CachedStatement>) -> Self {
        let plan = cached.prepared.read().expect(POISONED).clone();
        PreparedStatement { cached, plan }
    }
}

/// A statement text, parsed or found in the cache. It lives for one call;
/// boxing the parse would cost every uncached statement an allocation.
#[allow(clippy::large_enum_variant)]
enum Parsed {
    Cached(Arc<CachedStatement>),
    /// A text the cache does not keep: the statement is the caller's to
    /// take apart.
    Fresh(Statement),
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// SELECT result.
    Rows(QueryResult),
    /// Number of rows affected by DML, or 0 for DDL.
    Affected(usize),
}

impl ExecOutcome {
    /// Unwrap a SELECT result.
    pub fn rows(self) -> QueryResult {
        match self {
            ExecOutcome::Rows(r) => r,
            ExecOutcome::Affected(n) => panic!("expected rows, got Affected({n})"),
        }
    }

    /// Unwrap a DML/DDL row count.
    pub fn affected(self) -> usize {
        match self {
            ExecOutcome::Affected(n) => n,
            ExecOutcome::Rows(_) => panic!("expected affected count, got rows"),
        }
    }
}

/// Cumulative engine statistics (a point-in-time snapshot; see
/// [`Database::stats`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct DbStats {
    /// SELECT statements executed.
    pub selects: u64,
    /// Rows inserted.
    pub inserts: u64,
    /// Rows deleted.
    pub deletes: u64,
    /// Rows updated.
    pub updates: u64,
    /// Transactions opened via [`Database::begin`].
    pub txn_begins: u64,
    /// Transactions committed.
    pub txn_commits: u64,
    /// Transactions aborted (explicit rollback or drop without commit).
    pub txn_aborts: u64,
    /// Statement texts parsed (a statement-cache hit parses nothing).
    pub parses: u64,
    /// Accumulated executor work counters.
    pub exec: ExecStats,
}

/// Interior-mutable statistics cells: every counter is a relaxed atomic so
/// the read-only query path ([`Database::query`] and friends, which take
/// `&self`) can account its work without exclusive access. The cells are
/// striped per thread ([`crate::stripe`]): two request threads, or two of
/// the invalidator's sharded pollers, add to two cache lines, and
/// [`Database::stats`] sums the stripes exactly.
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    selects: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    updates: AtomicU64,
    txn_begins: AtomicU64,
    txn_commits: AtomicU64,
    txn_aborts: AtomicU64,
    parses: AtomicU64,
    rows_scanned: AtomicU64,
    rows_joined: AtomicU64,
    rows_output: AtomicU64,
    index_probes: AtomicU64,
    seq_scans: AtomicU64,
}

thread_local! {
    /// Rows this thread's statements have read: what
    /// [`rows_read_by_this_thread`] returns.
    static ROWS_READ: Cell<u64> = const { Cell::new(0) };
}

/// Rows read from tables (by scan or through an index) by the statements
/// this thread has run, on any database, since the thread started. A
/// request that runs its statements on its own thread reads its own cost as
/// the difference of two calls, whatever other threads run meanwhile.
pub fn rows_read_by_this_thread() -> u64 {
    ROWS_READ.get()
}

impl StatsCells {
    fn add_exec(&self, s: &ExecStats) {
        ROWS_READ.set(ROWS_READ.get() + s.rows_read());
        self.rows_scanned.fetch_add(s.rows_scanned, Ordering::Relaxed);
        self.rows_joined.fetch_add(s.rows_joined, Ordering::Relaxed);
        self.rows_output.fetch_add(s.rows_output, Ordering::Relaxed);
        self.index_probes.fetch_add(s.index_probes, Ordering::Relaxed);
        self.seq_scans.fetch_add(s.seq_scans, Ordering::Relaxed);
    }

    fn add_to(&self, total: &mut DbStats) {
        let get = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        total.selects += get(&self.selects);
        total.inserts += get(&self.inserts);
        total.deletes += get(&self.deletes);
        total.updates += get(&self.updates);
        total.txn_begins += get(&self.txn_begins);
        total.txn_commits += get(&self.txn_commits);
        total.txn_aborts += get(&self.txn_aborts);
        total.parses += get(&self.parses);
        total.exec.add(&ExecStats {
            rows_scanned: get(&self.rows_scanned),
            rows_joined: get(&self.rows_joined),
            rows_output: get(&self.rows_output),
            index_probes: get(&self.index_probes),
            seq_scans: get(&self.seq_scans),
        });
    }
}

/// An in-memory relational database with an inspectable update log.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    log: UpdateLog,
    stats: Striped<StatsCells>,
    fault: crate::fault::FaultPlan,
    /// Parsed statements by text. Only texts executed with parameters are
    /// kept: literal-only texts (polling queries, ad-hoc updates) are mostly
    /// distinct and would evict the few templates that repeat. A SELECT's
    /// plan is kept beside its parse for as long as it is current.
    statements: RwLock<HashMap<String, Arc<CachedStatement>>>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (transaction rollback machinery).
    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The update log (the invalidator reads this).
    pub fn update_log(&self) -> &UpdateLog {
        &self.log
    }

    /// Mutable log access (truncation by the log owner).
    pub fn update_log_mut(&mut self) -> &mut UpdateLog {
        &mut self.log
    }

    /// Cumulative statistics (a consistent-enough relaxed snapshot).
    pub fn stats(&self) -> DbStats {
        let mut total = DbStats::default();
        for cells in self.stats.iter() {
            cells.add_to(&mut total);
        }
        total
    }

    /// Install a fault-injection plan (harness only; the default plan is
    /// inert). Transactions consult it for injected mid-stream aborts.
    pub fn set_fault_plan(&mut self, plan: crate::fault::FaultPlan) {
        self.fault = plan;
    }

    /// The installed fault plan (inert unless [`Database::set_fault_plan`]
    /// was called).
    pub fn fault_plan(&self) -> &crate::fault::FaultPlan {
        &self.fault
    }

    /// Same-crate instrumentation hooks: the transaction guard counts
    /// begins/commits/aborts through `&self` so it composes with the
    /// read-only query path.
    pub(crate) fn note_txn_begin(&self) {
        self.stats.mine().txn_begins.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_txn_commit(&self) {
        self.stats.mine().txn_commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_txn_abort(&self) {
        self.stats.mine().txn_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Execute one SQL statement without parameters.
    pub fn execute(&mut self, sql: &str) -> DbResult<ExecOutcome> {
        self.execute_with_params(sql, &[])
    }

    /// Execute one SQL statement with positional parameters (`$1`… / `?`).
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecOutcome> {
        match self.statement(sql, params)? {
            Parsed::Fresh(Statement::Insert(ins)) => self.insert(Cow::Owned(ins), params),
            Parsed::Fresh(stmt) => self.execute_statement(&stmt, params),
            Parsed::Cached(cached) if matches!(cached.statement, Statement::Select(_)) => {
                let mut stmt = PreparedStatement::from_cache(cached);
                self.query_prepared(&mut stmt, params).map(ExecOutcome::Rows)
            }
            Parsed::Cached(cached) => self.execute_statement(&cached.statement, params),
        }
    }

    /// Parse `sql`, or fetch its parse from the statement cache.
    fn statement(&self, sql: &str, params: &[Value]) -> DbResult<Parsed> {
        if params.is_empty() {
            self.stats.mine().parses.fetch_add(1, Ordering::Relaxed);
            return Ok(Parsed::Fresh(parse(sql)?));
        }
        self.cached_statement(sql).map(Parsed::Cached)
    }

    /// The statement cache's entry for a parameterised text, parsed and
    /// filed on its first sight.
    fn cached_statement(&self, sql: &str) -> DbResult<Arc<CachedStatement>> {
        if let Some(cached) = self.statements.read().expect(POISONED).get(sql) {
            return Ok(cached.clone());
        }
        self.stats.mine().parses.fetch_add(1, Ordering::Relaxed);
        let cached = Arc::new(CachedStatement {
            statement: parse(sql)?,
            prepared: RwLock::new(None),
        });
        let mut cache = self.statements.write().expect(POISONED);
        if cache.len() >= STATEMENT_CACHE_CAPACITY {
            cache.clear();
        }
        cache.insert(sql.to_string(), cached.clone());
        Ok(cached)
    }

    /// Prepare a parameterised statement for a connection to keep: its
    /// parse is the statement cache's, and its plan is the connection's own
    /// copy, so that [`Database::query_prepared`] touches no state another
    /// connection writes while the plan stays current.
    pub fn prepare(&self, sql: &str) -> DbResult<PreparedStatement> {
        self.cached_statement(sql).map(PreparedStatement::from_cache)
    }

    /// Run a prepared SELECT with `params`, from the plan the statement
    /// keeps. The plan is made when there is none yet or a FROM table's
    /// schema has changed since it was made, and then filed in the
    /// statement cache too, for the statements prepared after it. A run
    /// with a current plan takes none of the statement cache's locks.
    pub fn query_prepared(
        &self,
        stmt: &mut PreparedStatement,
        params: &[Value],
    ) -> DbResult<QueryResult> {
        let Statement::Select(select) = &stmt.cached.statement else {
            return self.query_statement(&stmt.cached.statement, params);
        };
        let prepared = match stmt.plan.take() {
            Some(plan) if plan.is_current(&self.catalog, select, params) => plan,
            _ => {
                let plan = Arc::new(PreparedSelect::new(&self.catalog, select, params)?);
                *stmt.cached.prepared.write().expect(POISONED) = Some(plan.clone());
                plan
            }
        };
        let result = self.account(|stats| prepared.execute(&self.catalog, select, params, stats));
        stmt.plan = Some(prepared);
        result
    }

    /// Execute a pre-parsed statement.
    pub fn execute_statement(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> DbResult<ExecOutcome> {
        match stmt {
            Statement::Select(_) => self.query_statement(stmt, params).map(ExecOutcome::Rows),
            Statement::Insert(ins) => self.insert(Cow::Borrowed(ins), params),
            Statement::Delete(del) => {
                let table = self.catalog.require(&del.table)?;
                let ctx = BindContext::new(vec![(del.table.clone(), table.schema().clone())]);
                let mut stats = ExecStats::default();
                let victims = find_rows(table, &ctx, del.where_clause.as_ref(), params, &mut stats)?;
                self.stats.mine().add_exec(&stats);
                let table = self.catalog.require_mut(&del.table)?;
                let n = victims.len();
                for rid in victims {
                    // The row the table gives back is the log's image.
                    let row = table.delete(rid).expect("find_rows returns live rows");
                    self.log.append(table.shared_name(), LogOp::Delete(row));
                }
                self.stats.mine().deletes.fetch_add(n as u64, Ordering::Relaxed);
                Ok(ExecOutcome::Affected(n))
            }
            Statement::Update(upd) => {
                let table = self.catalog.require(&upd.table)?;
                let ctx = BindContext::new(vec![(upd.table.clone(), table.schema().clone())]);
                let assignments: Vec<(usize, crate::eval::BoundExpr)> = upd
                    .assignments
                    .iter()
                    .map(|(col, e)| Ok((table.schema().require(col)?, bind(e, &ctx, params)?)))
                    .collect::<DbResult<_>>()?;
                let mut stats = ExecStats::default();
                let changes: Vec<_> =
                    find_rows(table, &ctx, upd.where_clause.as_ref(), params, &mut stats)?
                        .into_iter()
                        .map(|rid| {
                            let row = table.get(rid).expect("find_rows returns live rows");
                            let mut new_row = row.clone();
                            for (ci, e) in &assignments {
                                new_row[*ci] = e.eval(&[row]);
                            }
                            (rid, new_row)
                        })
                        .collect();
                self.stats.mine().add_exec(&stats);
                // Every new row is checked before any replaces its old one:
                // a statement that fails changes nothing.
                for (_, new) in &changes {
                    table.schema().check_row(new)?;
                }
                let table = self.catalog.require_mut(&upd.table)?;
                let n = changes.len();
                for (rid, new) in changes {
                    let old = table
                        .replace(rid, new.clone())?
                        .expect("find_rows returns live rows");
                    // An UPDATE is a delete + insert in the log (Δ⁻ then Δ⁺).
                    self.log.append(table.shared_name(), LogOp::Delete(old));
                    self.log.append(table.shared_name(), LogOp::Insert(new));
                }
                self.stats.mine().updates.fetch_add(n as u64, Ordering::Relaxed);
                Ok(ExecOutcome::Affected(n))
            }
            Statement::CreateTable(ct) => {
                let schema = Arc::new(Schema::new(
                    ct.columns
                        .iter()
                        .map(|(n, t)| ColumnDef::new(n.clone(), *t))
                        .collect(),
                ));
                let mut table = Table::new(ct.table.clone(), schema);
                for idx in &ct.indexes {
                    table.create_index(idx)?;
                }
                for idx in &ct.range_indexes {
                    table.create_range_index(idx)?;
                }
                self.catalog.create_table(table)?;
                Ok(ExecOutcome::Affected(0))
            }
            Statement::DropTable(name) => {
                self.catalog.drop_table(name)?;
                Ok(ExecOutcome::Affected(0))
            }
        }
    }

    /// `INSERT … VALUES`: every row is built and checked before any is
    /// inserted, so a statement that fails changes nothing. An owned
    /// statement's literals move into their rows.
    fn insert(&mut self, ins: Cow<'_, Insert>, params: &[Value]) -> DbResult<ExecOutcome> {
        let schema = self.catalog.require(&ins.table)?.schema().clone();
        let mut rows = Vec::with_capacity(ins.rows.len());
        let table_name = match ins {
            Cow::Borrowed(ins) => {
                for exprs in &ins.rows {
                    let values = exprs.iter().map(Cow::Borrowed);
                    rows.push(values_row(&schema, ins.columns.as_deref(), values, params)?);
                }
                Cow::Borrowed(ins.table.as_str())
            }
            Cow::Owned(Insert {
                table,
                columns,
                rows: values,
            }) => {
                for exprs in values {
                    let values = exprs.into_iter().map(Cow::Owned);
                    rows.push(values_row(&schema, columns.as_deref(), values, params)?);
                }
                Cow::Owned(table)
            }
        };
        for row in &rows {
            schema.check_row(row)?;
        }
        let table = self.catalog.require_mut(&table_name)?;
        let n = rows.len();
        for row in rows {
            // The table keeps the row and the log its one copy.
            let image = row.clone();
            table.insert(row)?;
            self.log.append(table.shared_name(), LogOp::Insert(image));
        }
        self.stats.mine().inserts.fetch_add(n as u64, Ordering::Relaxed);
        Ok(ExecOutcome::Affected(n))
    }

    /// Plan description for a SELECT (no execution).
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        match parse(sql)? {
            Statement::Select(s) => crate::exec::explain_select(&self.catalog, &s, &[]),
            other => Ok(format!("{other:?}")),
        }
    }

    /// Run a SELECT through the read-only query path. Takes `&self`: any
    /// number of pollers (the invalidator's sharded sync-point workers, web
    /// connections holding a read lock) can execute concurrently, with
    /// statistics accounted through relaxed atomics. Non-SELECT statements
    /// are rejected with [`DbError::Unsupported`] rather than executed.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        self.query_with_params(sql, &[])
    }

    /// Read-only SELECT with positional parameters (`$1`… / `?`).
    pub fn query_with_params(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        match self.statement(sql, params)? {
            Parsed::Fresh(stmt) => self.query_statement(&stmt, params),
            Parsed::Cached(cached) => {
                self.query_prepared(&mut PreparedStatement::from_cache(cached), params)
            }
        }
    }

    /// Run an already-parsed SELECT through the read-only query path: what
    /// [`Database::query_with_params`] does once it has its statement. For a
    /// caller that built the statement as a tree (the invalidator's polling
    /// queries), so that it is never rendered to text and parsed back.
    pub fn query_select(&self, select: &Select, params: &[Value]) -> DbResult<QueryResult> {
        self.account(|stats| execute_select(&self.catalog, select, params, stats))
    }

    /// Run one SELECT and add its work to the statistics if it succeeds.
    fn account(
        &self,
        run: impl FnOnce(&mut ExecStats) -> DbResult<QueryResult>,
    ) -> DbResult<QueryResult> {
        let mut stats = ExecStats::default();
        let result = run(&mut stats)?;
        self.stats.mine().selects.fetch_add(1, Ordering::Relaxed);
        self.stats.mine().add_exec(&stats);
        Ok(result)
    }

    fn query_statement(&self, stmt: &Statement, params: &[Value]) -> DbResult<QueryResult> {
        match stmt {
            Statement::Select(s) => self.query_select(s, params),
            other => Err(DbError::Unsupported(format!(
                "read-only query path accepts only SELECT, got {other:?}"
            ))),
        }
    }

    /// Current log high-water mark (next LSN).
    pub fn high_water(&self) -> Lsn {
        self.log.high_water()
    }

    /// Direct row insertion bypassing SQL (bulk loading).
    pub fn insert_row(&mut self, table: &str, row: Row) -> DbResult<()> {
        let t = self.catalog.require_mut(table)?;
        let image = row.clone();
        t.insert(row)?;
        self.log.append(t.shared_name(), LogOp::Insert(image));
        self.stats.mine().inserts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Delete one row by value (used by workload generators); returns
    /// whether a row was found.
    pub fn delete_row_equal(&mut self, table: &str, row: &[Value]) -> DbResult<bool> {
        let t = self.catalog.require_mut(table)?;
        match t.find_equal(row) {
            Some(rid) => {
                let removed = t.delete(rid).expect("rid came from find_equal");
                self.log.append(t.shared_name(), LogOp::Delete(removed));
                self.stats.mine().deletes.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

/// One `VALUES` row as a table row. A literal of an owned statement moves
/// into the row; anything else is bound and evaluated. With a column list,
/// unnamed columns are NULL.
fn values_row<'e>(
    schema: &Schema,
    columns: Option<&[String]>,
    exprs: impl ExactSizeIterator<Item = Cow<'e, Expr>>,
    params: &[Value],
) -> DbResult<Row> {
    let mut values = Vec::with_capacity(exprs.len());
    for e in exprs {
        values.push(match e {
            Cow::Owned(Expr::Literal(v)) => v,
            // Empty context: INSERT values may not reference columns.
            e => bind(&e, &BindContext::new(vec![]), params)?.eval(&[]),
        });
    }
    let Some(cols) = columns else {
        return Ok(values);
    };
    if cols.len() != values.len() {
        return Err(DbError::ArityMismatch {
            expected: cols.len(),
            got: values.len(),
        });
    }
    let mut row = vec![Value::Null; schema.len()];
    for (c, v) in cols.iter().zip(values) {
        row[schema.require(c)?] = v;
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 4.1 schema.
    pub fn example_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))")
            .unwrap();
        db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT, INDEX(model))")
            .unwrap();
        db.execute(
            "INSERT INTO Car VALUES ('Toyota','Avalon',25000), \
             ('Mitsubishi','Eclipse',20000), ('Honda','Civic',18000)",
        )
        .unwrap();
        db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5)")
            .unwrap();
        db
    }

    #[test]
    fn select_star() {
        let db = example_db();
        let r = db.query("SELECT * FROM Car").unwrap();
        assert_eq!(*r.columns, ["maker", "model", "price"]);
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn filtered_select_with_params() {
        let db = example_db();
        let r = db
            .query_with_params(
                "SELECT model FROM Car WHERE price <= $1",
                &[Value::Int(20000)],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn paper_join_query() {
        let db = example_db();
        let r = db
            .query(
                "select Car.maker, Car.model, Car.price, Mileage.EPA \
                 from Car, Mileage \
                 where Car.model = Mileage.model and Car.price < 20000",
            )
            .unwrap();
        // Only Civic joins and is under 20000.
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Value::Str("Civic".into()));
        assert_eq!(r.rows[0][3], Value::Float(36.5));
    }

    #[test]
    fn insert_affects_join_like_example_4_1() {
        let mut db = example_db();
        let q = "select Car.maker, Car.model, Car.price, Mileage.EPA \
                 from Car, Mileage \
                 where Car.model = Mileage.model and Car.price < 20000";
        let before = db.query(q).unwrap();
        // (Mitsubishi, Eclipse, 20000) is not < 20000 → no impact.
        db.execute("INSERT INTO Car VALUES ('Mitsubishi','Eclipse',20000)")
            .unwrap();
        assert_eq!(db.query(q).unwrap(), before);
        // (Dodge, Avalon, 15000) satisfies price and joins with Mileage.
        db.execute("INSERT INTO Car VALUES ('Dodge','Avalon',15000)")
            .unwrap();
        assert_eq!(db.query(q).unwrap().rows.len(), before.rows.len() + 1);
    }

    #[test]
    fn update_logs_delete_then_insert() {
        let mut db = example_db();
        let hw = db.high_water();
        db.execute("UPDATE Car SET price = 26000 WHERE model = 'Avalon'")
            .unwrap();
        let recs = db.update_log().pull_since(hw);
        assert_eq!(recs.len(), 2);
        assert!(matches!(&recs[0].op, LogOp::Delete(r) if r[2] == Value::Int(25000)));
        assert!(matches!(&recs[1].op, LogOp::Insert(r) if r[2] == Value::Int(26000)));
    }

    #[test]
    fn delete_with_and_without_where() {
        let mut db = example_db();
        assert_eq!(
            db.execute("DELETE FROM Car WHERE maker = 'Toyota'")
                .unwrap()
                .affected(),
            1
        );
        assert_eq!(db.execute("DELETE FROM Car").unwrap().affected(), 2);
        assert_eq!(db.query("SELECT * FROM Car").unwrap().rows.len(), 0);
    }

    #[test]
    fn aggregates_group_by_order() {
        let mut db = example_db();
        db.execute("INSERT INTO Car VALUES ('Toyota','Corolla',17000)")
            .unwrap();
        let r = db
            .query("SELECT maker, COUNT(*), MIN(price) FROM Car GROUP BY maker ORDER BY maker")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[2][0], Value::Str("Toyota".into()));
        assert_eq!(r.rows[2][1], Value::Int(2));
        assert_eq!(r.rows[2][2], Value::Int(17000));
    }

    #[test]
    fn count_on_empty_table() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
        let r = db.query("SELECT a, COUNT(*) FROM t GROUP BY a").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn order_by_desc_and_limit() {
        let db = example_db();
        let r = db
            .query("SELECT model, price FROM Car ORDER BY price DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Str("Avalon".into()));
    }

    #[test]
    fn distinct_dedupes() {
        let mut db = example_db();
        db.execute("INSERT INTO Car VALUES ('Toyota','Supra',45000)")
            .unwrap();
        let r = db.query("SELECT DISTINCT maker FROM Car").unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = example_db();
        db.execute("INSERT INTO Car (model, maker) VALUES ('Yaris','Toyota')")
            .unwrap();
        let r = db
            .query("SELECT price FROM Car WHERE model = 'Yaris'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }

    #[test]
    fn errors_surface() {
        let mut db = example_db();
        assert!(matches!(
            db.query("SELECT * FROM Nope"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.query("SELECT nope FROM Car"),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(
            db.execute("CREATE TABLE Car (x INT)"),
            Err(DbError::TableExists(_))
        ));
        assert!(matches!(
            db.query("SELECT model FROM Car, Mileage"),
            Err(DbError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn delete_row_equal_roundtrip() {
        let mut db = example_db();
        assert!(db
            .delete_row_equal("Car", &["Toyota".into(), "Avalon".into(), Value::Int(25000)])
            .unwrap());
        assert!(!db
            .delete_row_equal("Car", &["Toyota".into(), "Avalon".into(), Value::Int(25000)])
            .unwrap());
    }

    #[test]
    fn stats_accumulate() {
        let db = example_db();
        let s0 = db.stats().selects;
        db.query("SELECT * FROM Car").unwrap();
        assert_eq!(db.stats().selects, s0 + 1);
        assert!(db.stats().exec.work() > 0);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let db = example_db();
        let a = db
            .query("SELECT model FROM Car ORDER BY price")
            .unwrap()
            .fingerprint();
        let b = db
            .query("SELECT model FROM Car ORDER BY price DESC")
            .unwrap()
            .fingerprint();
        assert_ne!(a, b);
    }

    #[test]
    fn index_probe_used_for_equality() {
        let db = example_db();
        db.query("SELECT * FROM Car WHERE model = 'Avalon'").unwrap();
        assert!(db.stats().exec.index_probes > 0);
        assert_eq!(db.stats().exec.rows_scanned, 0, "no full scan needed");
    }

    fn range_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, s TEXT, RANGE INDEX(a))").unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 's{i}')")).unwrap();
        }
        db
    }

    #[test]
    fn range_index_used_for_inequalities() {
        let db = range_db();
        let r = db.query("SELECT a FROM t WHERE a < 10").unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(db.stats().exec.rows_scanned, 0, "range scan, no seq scan");
        assert_eq!(db.stats().exec.index_probes, 10);

        let r = db.query("SELECT a FROM t WHERE a >= 95").unwrap();
        assert_eq!(r.rows.len(), 5);
        let r = db.query("SELECT a FROM t WHERE a BETWEEN 40 AND 49").unwrap();
        assert_eq!(r.rows.len(), 10);
        let r = db.query("SELECT a FROM t WHERE a = 7").unwrap();
        assert_eq!(r.rows.len(), 1, "equality also served by the range index");
        assert_eq!(db.stats().exec.rows_scanned, 0);
    }

    #[test]
    fn range_index_results_match_seq_scan() {
        let with_ix = range_db();
        let mut without = Database::new();
        without.execute("CREATE TABLE t (a INT, s TEXT)").unwrap();
        for i in 0..100 {
            without
                .execute(&format!("INSERT INTO t VALUES ({i}, 's{i}')"))
                .unwrap();
        }
        for q in [
            "SELECT * FROM t WHERE a < 17 ORDER BY a",
            "SELECT * FROM t WHERE a > 90 ORDER BY a",
            "SELECT * FROM t WHERE 50 <= a AND a <= 52 ORDER BY a",
            "SELECT * FROM t WHERE a BETWEEN 98 AND 200 ORDER BY a",
        ] {
            assert_eq!(with_ix.query(q).unwrap(), without.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn range_index_maintained_across_dml() {
        let mut db = range_db();
        db.execute("DELETE FROM t WHERE a < 50").unwrap();
        db.execute("UPDATE t SET a = 1 WHERE a = 99").unwrap();
        let r = db.query("SELECT a FROM t WHERE a < 10").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn having_filters_groups() {
        let mut db = example_db();
        db.execute("INSERT INTO Car VALUES ('Toyota','Corolla',17000)").unwrap();
        let r = db
            .query("SELECT maker, COUNT(*) FROM Car GROUP BY maker HAVING COUNT(*) >= 2")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Str("Toyota".into()));
        // Alias form.
        let r = db
            .query("SELECT maker, COUNT(*) AS n FROM Car GROUP BY maker HAVING n >= 2 ORDER BY maker")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        // Grouped column in HAVING.
        let r = db
            .query("SELECT maker, COUNT(*) FROM Car GROUP BY maker HAVING maker = 'Honda'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Value::Int(1));
    }

    #[test]
    fn having_errors_are_typed() {
        let db = example_db();
        assert!(matches!(
            db.query("SELECT maker FROM Car HAVING maker = 'x'"),
            Err(DbError::Unsupported(_))
        ));
        // Unprojected aggregate in HAVING is rejected, not silently wrong.
        assert!(matches!(
            db.query("SELECT maker, COUNT(*) FROM Car GROUP BY maker HAVING SUM(price) > 1"),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn inner_join_on_is_sugar_for_comma_join() {
        let db = example_db();
        let a = db
            .query(
                "SELECT Car.maker, Mileage.EPA FROM Car INNER JOIN Mileage \
                 ON Car.model = Mileage.model WHERE Car.price < 20000 ORDER BY Car.maker",
            )
            .unwrap();
        let b = db
            .query(
                "SELECT Car.maker, Mileage.EPA FROM Car, Mileage \
                 WHERE Car.model = Mileage.model AND Car.price < 20000 ORDER BY Car.maker",
            )
            .unwrap();
        assert_eq!(a, b);
        assert!(!a.rows.is_empty());
    }

    #[test]
    fn chained_joins_with_aliases() {
        let mut db = example_db();
        db.execute("CREATE TABLE Dealer (model TEXT, city TEXT)").unwrap();
        db.execute("INSERT INTO Dealer VALUES ('Civic','Austin')").unwrap();
        let r = db
            .query(
                "SELECT c.maker, d.city FROM Car c \
                 JOIN Mileage m ON c.model = m.model \
                 JOIN Dealer d ON c.model = d.model",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Value::Str("Austin".into()));
    }

    #[test]
    fn scalar_functions_evaluate() {
        let mut db = example_db();
        let r = db
            .query("SELECT UPPER(maker), LENGTH(model) FROM Car WHERE model = 'Civic'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Str("HONDA".into()));
        assert_eq!(r.rows[0][1], Value::Int(5));

        let r = db
            .query("SELECT model FROM Car WHERE LOWER(maker) = 'toyota'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);

        let r = db.query("SELECT ABS(0 - price) FROM Car WHERE model = 'Civic'").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(18000));

        db.execute("INSERT INTO Car (maker, model) VALUES ('X','NoPrice')").unwrap();
        let r = db
            .query("SELECT COALESCE(price, 0 - 1) FROM Car WHERE model = 'NoPrice'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(-1));

        // NULL propagates; type mismatch yields NULL (→ false in WHERE).
        let r = db
            .query("SELECT model FROM Car WHERE UPPER(price) = 'X'")
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn scalar_functions_round_trip_through_display() {
        let db = example_db();
        let plan = db.explain("SELECT UPPER(maker) FROM Car WHERE LENGTH(model) > 4");
        assert!(plan.is_ok());
        use crate::sql::parser::parse;
        let sql = "SELECT UPPER(maker) FROM Car WHERE COALESCE(price, 0) > 5";
        let ast = parse(sql).unwrap();
        assert_eq!(parse(&ast.to_sql()).unwrap(), ast);
    }

    #[test]
    fn explain_reports_access_paths() {
        let db = example_db();
        let explain = |sql: &str| db.explain(sql).unwrap();
        // The paper's Example 4.1 shape: the constant crosses the equi-join,
        // so both sides are index-driven.
        assert_eq!(
            explain("SELECT * FROM Car c, Mileage m WHERE c.model = 'x' AND c.model = m.model"),
            "INDEX PROBE (model) c [1 local predicate(s)]\n\
             INDEX PROBE (model) m [1 local predicate(s)]\n  joined via INDEX JOIN\n"
        );
        // An indexed join column with no constant is probed per outer row,
        // unless the outer side is the larger one.
        assert_eq!(
            explain("SELECT * FROM Mileage m, Car c WHERE c.model = m.model AND m.EPA > 30"),
            "SEQ SCAN m [1 local predicate(s)]\n\
             INDEX PROBE (model) c [0 local predicate(s)]\n  joined via INDEX JOIN\n"
        );
        let plan = explain("SELECT * FROM Car c, Mileage m WHERE c.model = m.model");
        assert!(plan.ends_with("SEQ SCAN m [0 local predicate(s)]\n  joined via HASH JOIN\n"));
        let plan = explain("SELECT * FROM Car c, Mileage m WHERE c.price > m.EPA");
        assert!(plan.ends_with("  joined via NESTED LOOP\n"), "{plan}");

        let db2 = {
            let mut d = Database::new();
            d.execute("CREATE TABLE t (a INT, RANGE INDEX(a))").unwrap();
            d
        };
        let plan = db2
            .explain("SELECT a, COUNT(*) FROM t WHERE a < 5 GROUP BY a ORDER BY a LIMIT 3")
            .unwrap();
        assert!(plan.contains("RANGE SCAN (a)"), "{plan}");
        assert!(plan.contains("AGGREGATE"), "{plan}");
        assert!(plan.contains("SORT"), "{plan}");
        assert!(plan.contains("LIMIT"), "{plan}");

        let plan = db.explain("SELECT * FROM Car WHERE price > 1").unwrap();
        assert!(plan.contains("SEQ SCAN"), "{plan}");
    }

    #[test]
    fn point_lookups_and_point_updates_scan_nothing() {
        let mut db = example_db();
        let r = db
            .query_with_params(
                "SELECT Car.maker, Mileage.EPA FROM Car, Mileage \
                 WHERE Car.model = $1 AND Car.model = Mileage.model",
                &["Civic".into()],
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec!["Honda".into(), Value::Float(36.5)]]);
        for point_dml in [
            "UPDATE Car SET price = 17500 WHERE model = 'Civic'",
            "DELETE FROM Mileage WHERE model = 'Avalon'",
        ] {
            assert_eq!(db.execute(point_dml).unwrap().affected(), 1);
        }
        let exec = db.stats().exec;
        assert_eq!((exec.rows_scanned, exec.seq_scans), (0, 0));
        assert_eq!(exec.index_probes, 4, "one row per table and statement");
        // Without a usable index the rows a scan visits are what is counted.
        let unindexed = "UPDATE Car SET price = 1 WHERE maker = 'Honda'";
        assert_eq!(db.execute(unindexed).unwrap().affected(), 1);
        assert_eq!(db.stats().exec.rows_scanned, 3);
    }

    #[test]
    fn statement_cache_parses_a_parameterised_text_once() {
        let mut db = example_db();
        let q = "SELECT * FROM Car WHERE model = $1";
        let before = db.stats().parses;
        for model in ["Civic", "Avalon", "Civic"] {
            let r = db.query_with_params(q, &[model.into()]).unwrap();
            assert_eq!(r.rows.len(), 1);
        }
        assert_eq!(db.stats().parses, before + 1);

        // A plan kept with the parse is tied to the schemas it was bound
        // against: the same text binds again against whatever the table
        // looks like now.
        db.execute("DROP TABLE Car").unwrap();
        db.execute("CREATE TABLE Car (price INT, model TEXT)")
            .unwrap();
        db.execute("INSERT INTO Car VALUES (7, 'Civic')").unwrap();
        let r = db.query_with_params(q, &["Civic".into()]).unwrap();
        assert_eq!(*r.columns, ["price", "model"]);
        assert_eq!(r.rows, vec![vec![Value::Int(7), "Civic".into()]]);

        // Literal-only texts bypass it; parameterised ones cannot outgrow it.
        for i in 0..10_000 {
            let text = format!("SELECT * FROM Car WHERE price = {i}");
            db.query(&text).unwrap();
        }
        assert_eq!(db.statements.read().unwrap().len(), 1);
        for i in 0..3 * STATEMENT_CACHE_CAPACITY {
            let text = format!("SELECT * FROM Car WHERE price = $1 AND price < {i}");
            db.execute_with_params(&text, &[Value::Int(7)]).unwrap();
            assert!(db.statements.read().unwrap().len() <= STATEMENT_CACHE_CAPACITY);
        }
    }

    #[test]
    fn a_kept_plan_fails_as_binding_would_when_parameters_run_short() {
        let db = example_db();
        let q = "SELECT model FROM Car WHERE price > $1 AND maker = $2";
        let both = [Value::Int(1), "Honda".into()];
        assert_eq!(db.query_with_params(q, &both).unwrap().rows.len(), 1);
        assert_eq!(
            db.query_with_params(q, &both[..1]),
            Err(DbError::UnboundParameter(2))
        );
        assert_eq!(db.query_with_params(q, &both).unwrap().rows.len(), 1);
        assert_eq!(db.stats().selects, 2, "a failed query is not counted");
    }

    /// What a failed statement must leave as it was: the rows in slot
    /// order, what every index returns, the log and the statistics.
    fn state(db: &Database) -> impl PartialEq + std::fmt::Debug {
        let t = db.catalog().get("t").unwrap();
        let keys: Vec<Value> = (0..4).map(Value::Int).chain(["a", "b", "c", "z"].map(Value::from)).collect();
        let lookups: Vec<_> = keys
            .iter()
            .map(|k| (t.index_lookup(0, k).map(<[_]>::to_vec), t.index_lookup(1, k).map(<[_]>::to_vec)))
            .collect();
        let range = t.range_lookup(0, std::ops::Bound::Unbounded, std::ops::Bound::Unbounded);
        let scan: Vec<_> = t.scan().map(|(rid, row)| (rid, row.clone())).collect();
        let log = db.update_log().pull_since(0).to_vec();
        let stats = db.stats();
        (scan, lookups, range, log, db.high_water(), stats.inserts, stats.updates)
    }

    #[test]
    fn a_multi_row_statement_that_fails_changes_nothing() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, s TEXT, INDEX(a), INDEX(s), RANGE INDEX(a))")
            .unwrap();
        db.execute("INSERT INTO t VALUES (0, 'z')").unwrap();
        let before = state(&db);
        // The second row fails its type check, then its arity check: the
        // first row must not be in the table, its indexes or the log.
        assert!(matches!(
            db.execute("INSERT INTO t VALUES (1, 'a'), ('x', 'b')"),
            Err(DbError::TypeMismatch { .. })
        ));
        assert_eq!(state(&db), before);
        assert!(matches!(
            db.execute("INSERT INTO t VALUES (2, 'c'), (3)"),
            Err(DbError::ArityMismatch { .. })
        ));
        assert_eq!(state(&db), before);
        assert!(matches!(
            db.execute_with_params("INSERT INTO t VALUES ($1, 'c'), ($2, 'c')", &[Value::Int(2)]),
            Err(DbError::UnboundParameter(2))
        ));
        assert_eq!(state(&db), before);

        // An UPDATE whose third new row is the wrong type leaves the first
        // two rows unreplaced.
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, NULL)").unwrap();
        let before = state(&db);
        assert!(matches!(
            db.execute("UPDATE t SET s = COALESCE(s, a)"),
            Err(DbError::TypeMismatch { .. })
        ));
        assert_eq!(state(&db), before);
        assert_eq!(db.execute("UPDATE t SET a = a + 1 WHERE s IS NOT NULL").unwrap().affected(), 2);

        // Inside a transaction a failed statement changes nothing either,
        // and the transaction goes on: its other writes commit.
        let hw = db.high_water();
        let mut tx = db.begin();
        tx.execute("INSERT INTO t VALUES (3, 'c')").unwrap();
        assert!(tx.execute("INSERT INTO t VALUES (4, 'c'), (5)").is_err());
        assert_eq!(tx.commit(), Some((hw, hw)));
        assert_eq!(db.query("SELECT a FROM t WHERE s = 'c'").unwrap().rows, vec![vec![Value::Int(3)]]);
    }
}
