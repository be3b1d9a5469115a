//! Polling-query execution and the information management module (§4.2.3,
//! §4.3).
//!
//! Polling queries are deduplicated within a synchronization point (the
//! paper's grouping of related instances/updates: instances of one type and
//! correlated delta tuples frequently produce the *same* residual SQL).
//! Definite answers can also come from **maintained indexes** — the paper's
//! "external indexes kept within the invalidator" — which are join-attribute
//! multisets kept current from the update deltas, trading invalidator memory
//! for DBMS load.

use crate::analysis::{PollingQuery, TupleImpact, TypeAnalysis};
use crate::delta::DeltaSet;
use crate::query_type::QueryShape;
use cacheportal_db::sql::ast::{CmpOp, Expr};
use cacheportal_db::{Database, DbError, DbResult, FaultPlan, PollFault, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One maintained join-attribute index.
#[derive(Debug)]
pub struct MaintainedIndex {
    /// Lower-cased table name.
    pub table: String,
    /// Column name (case preserved for display; matched case-insensitively).
    pub column: String,
    column_idx: usize,
    /// Multiset of values currently in the column.
    counts: HashMap<Value, i64>,
}

impl MaintainedIndex {
    /// Number of distinct values (the paper's "size of the join index").
    pub fn distinct_values(&self) -> usize {
        self.counts.len()
    }

    fn contains(&self, v: &Value) -> bool {
        self.counts.get(v).copied().unwrap_or(0) > 0
    }
}

/// Statistics for the polling subsystem.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PollStats {
    /// Polling queries actually sent to the DBMS.
    pub issued: u64,
    /// Polls answered from the per-sync-point dedup cache.
    pub from_cache: u64,
    /// Polls answered definitively by a maintained index.
    pub from_index: u64,
    /// Poll results flipped to "affected" by the correlated-delete guard.
    pub delete_guard_hits: u64,
    /// Polls that failed with an injected fault (error or timeout). Each
    /// failed attempt counts; faulted answers are never cached, so the
    /// count is a pure function of the workload — identical across worker
    /// counts.
    pub faulted: u64,
    /// Retry attempts made after a transient poll fault. A poll only
    /// surfaces as failed once its retry allowance is exhausted.
    pub retries: u64,
}

/// The information management module: maintained indexes + poll statistics.
#[derive(Debug, Default)]
pub struct InfoManager {
    indexes: Vec<MaintainedIndex>,
}

impl InfoManager {
    /// Create the module/runner.
    pub fn new() -> Self {
        InfoManager::default()
    }

    /// Start maintaining an index over `table.column`, bootstrapped from the
    /// current database contents. Idempotent.
    pub fn maintain_index(&mut self, db: &Database, table: &str, column: &str) -> DbResult<()> {
        let t = db
            .catalog()
            .get(table)
            .ok_or_else(|| cacheportal_db::DbError::UnknownTable(table.to_string()))?;
        let column_idx = t.schema().require(column)?;
        let table_lc = table.to_ascii_lowercase();
        if self
            .indexes
            .iter()
            .any(|ix| ix.table == table_lc && ix.column_idx == column_idx)
        {
            return Ok(());
        }
        let mut counts: HashMap<Value, i64> = HashMap::new();
        for (_, row) in t.scan() {
            *counts.entry(row[column_idx].clone()).or_insert(0) += 1;
        }
        self.indexes.push(MaintainedIndex {
            table: table_lc,
            column: column.to_string(),
            column_idx,
            counts,
        });
        Ok(())
    }

    /// Currently maintained indexes.
    pub fn indexes(&self) -> &[MaintainedIndex] {
        &self.indexes
    }

    /// Keep indexes current: fold one sync interval's deltas in. Must run
    /// *before* polls are answered, since polls reflect the post-batch state.
    pub fn apply_deltas(&mut self, deltas: &DeltaSet) {
        for ix in &mut self.indexes {
            if let Some(delta) = deltas.for_table(&ix.table) {
                for row in &delta.inserted {
                    *ix.counts.entry(row[ix.column_idx].clone()).or_insert(0) += 1;
                }
                for row in &delta.deleted {
                    if let Some(c) = ix.counts.get_mut(&row[ix.column_idx]) {
                        *c -= 1;
                        if *c <= 0 {
                            ix.counts.remove(&row[ix.column_idx]);
                        }
                    }
                }
            }
        }
    }

    /// Try to answer a poll from maintained indexes alone.
    ///
    /// * If the poll's WHERE contains an `indexed_col = literal` conjunct and
    ///   the index says the value is absent, the count is definitely 0.
    /// * If additionally that equality is the *only* conjunct and the poll
    ///   reads a single table, a present value means count > 0.
    ///
    /// Returns `None` when the index cannot decide — which, with no index
    /// maintained, is known before the poll is looked at.
    pub fn try_answer(&self, poll: &PollingQuery) -> Option<bool> {
        if self.indexes.is_empty() {
            return None;
        }
        let sel = poll.select();
        let [only] = sel.from.as_slice() else {
            return None;
        };
        let conjuncts = sel.where_clause.as_ref()?.conjuncts();
        for (i, c) in conjuncts.iter().enumerate() {
            let Some((col_name, value)) = as_col_eq_literal(c) else {
                continue;
            };
            let Some(ix) = self.indexes.iter().find(|ix| {
                ix.table.eq_ignore_ascii_case(&only.table)
                    && ix.column.eq_ignore_ascii_case(col_name)
            }) else {
                continue;
            };
            if !ix.contains(value) {
                return Some(false); // definite: no row matches the equality
            }
            if conjuncts.len() == 1 && i == 0 {
                return Some(true); // sole condition and value present
            }
        }
        None
    }
}

/// Match `col = literal` / `literal = col` (column possibly qualified).
fn as_col_eq_literal(e: &Expr) -> Option<(&str, &Value)> {
    if let Expr::Cmp { left, op, right } = e {
        if *op == CmpOp::Eq {
            match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => {
                    return Some((c.column.as_str(), v));
                }
                _ => {}
            }
        }
    }
    None
}

/// How an affirmative poll decision was reached (provenance detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollAnswer {
    /// The polling query was sent to the DBMS and found matching rows.
    Issued,
    /// An identical poll earlier in this sync point already answered yes.
    FromCache,
    /// A maintained join-attribute index answered definitively.
    FromIndex,
    /// The correlated-delete guard flipped a negative poll to affected.
    DeleteGuard,
}

/// Number of dedup-cache stripes. Polls hash across stripes, so two shards
/// only contend when their polls share a stripe; 64 stripes keep that rare
/// even with the full worker fan-out while bounding memory.
const DEDUP_STRIPES: usize = 64;

/// Retries a sync point allows each poll after a transient fault.
pub(crate) const POLL_MAX_RETRIES: u32 = 2;
/// Retries one query type may spend in one sync point: once they are gone
/// its remaining polls fail on the first fault, which keeps a flapping DBMS
/// from multiplying sync-point latency. Shard-local and deterministic (each
/// type is analyzed wholly within one shard).
pub(crate) const POLL_RETRY_BUDGET_PER_TYPE: u64 = 32;

/// Executes polls for one synchronization point, with dedup and the
/// correlated-delete guard.
///
/// The runner is shared by reference across the invalidator's shard workers:
/// the dedup cache is lock-striped on the poll's structural [`PollingQuery::key`]
/// and all counters are atomics, so every method takes `&self`. A stripe's
/// lock is held across poll *execution* (not just the map probe), which is
/// what makes identical polls execute **exactly once** across shards — the
/// second shard blocks on the stripe and then reads the first shard's
/// answer from the cache.
pub struct PollRunner<'a> {
    info: &'a InfoManager,
    deltas: &'a DeltaSet,
    stripes: Vec<Mutex<HashMap<u64, bool>>>,
    issued: AtomicU64,
    from_cache: AtomicU64,
    from_index: AtomicU64,
    delete_guard_hits: AtomicU64,
    contended: AtomicU64,
    faulted: AtomicU64,
    retries: AtomicU64,
    poll_rtt: Duration,
    fault: FaultPlan,
    max_retries: u32,
}

impl<'a> PollRunner<'a> {
    /// Create the module/runner.
    pub fn new(info: &'a InfoManager, deltas: &'a DeltaSet) -> Self {
        Self::with_rtt(info, deltas, Duration::ZERO)
    }

    /// Like [`PollRunner::new`], with a modeled per-poll round-trip time.
    /// In the paper's deployment the invalidator polls a *remote* DBMS over
    /// the network; `poll_rtt` injects that latency on every issued poll so
    /// benchmarks reproduce the regime where concurrent polling pays off.
    /// `Duration::ZERO` (the default) leaves the hot path untouched.
    pub fn with_rtt(info: &'a InfoManager, deltas: &'a DeltaSet, poll_rtt: Duration) -> Self {
        PollRunner {
            info,
            deltas,
            stripes: (0..DEDUP_STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            issued: AtomicU64::new(0),
            from_cache: AtomicU64::new(0),
            from_index: AtomicU64::new(0),
            delete_guard_hits: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            poll_rtt,
            fault: FaultPlan::default(),
            max_retries: 0,
        }
    }

    /// Install a fault plan: issued polls may then fail (error) or time out.
    /// Fault decisions key on the poll's structural [`PollingQuery::key`],
    /// so the same polls fault no matter how instances are sharded across
    /// workers — the parallel-equivalence guarantee extends to faults.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Configure the default retry policy: up to `max_retries` re-attempts,
    /// at once, after a transient poll fault.
    pub fn with_retry(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Snapshot of this sync point's poll counters.
    pub fn stats(&self) -> PollStats {
        PollStats {
            issued: self.issued.load(Ordering::Relaxed),
            from_cache: self.from_cache.load(Ordering::Relaxed),
            from_index: self.from_index.load(Ordering::Relaxed),
            delete_guard_hits: self.delete_guard_hits.load(Ordering::Relaxed),
            faulted: self.faulted.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    /// Times a shard found a dedup stripe already locked by another shard
    /// (kept out of [`PollStats`]: it is scheduling-dependent, and the
    /// equivalence guarantee covers `PollStats` exactly).
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Decide whether the polled instance is affected, and *how* an
    /// affirmative answer was reached (`None` = not affected).
    /// `tuple_was_delete` enables the correlated-delete guard (see
    /// `analysis` module docs).
    pub fn decide(
        &self,
        db: &Database,
        poll: &PollingQuery,
        tuple_was_delete: bool,
    ) -> DbResult<Option<PollAnswer>> {
        self.decide_with_allowance(db, poll, tuple_was_delete, self.max_retries)
            .map(|(answer, _)| answer)
    }

    /// Like [`PollRunner::decide`], with an explicit retry allowance for
    /// this call (the invalidator passes the remaining per-query-type
    /// budget) and the number of retries actually spent. Fault decisions
    /// key on `(poll key, attempt)`, so both the faults seen *and* the
    /// retries spent are pure functions of the workload — the
    /// parallel-equivalence property survives retries.
    pub fn decide_with_allowance(
        &self,
        db: &Database,
        poll: &PollingQuery,
        tuple_was_delete: bool,
        max_retries: u32,
    ) -> DbResult<(Option<PollAnswer>, u32)> {
        let mut retries_spent: u32 = 0;
        let stripe = &self.stripes[(poll.key % DEDUP_STRIPES as u64) as usize];
        let mut cache = match stripe.try_lock() {
            Some(guard) => guard,
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                stripe.lock()
            }
        };
        let (base, source) = match cache.get(&poll.key) {
            Some(hit) => {
                self.from_cache.fetch_add(1, Ordering::Relaxed);
                (*hit, PollAnswer::FromCache)
            }
            None => {
                let (answer, source) = match self.info.try_answer(poll) {
                    Some(ans) => {
                        self.from_index.fetch_add(1, Ordering::Relaxed);
                        (ans, PollAnswer::FromIndex)
                    }
                    None => {
                        // The DBMS interaction is the fault site: local
                        // index answers and cache hits cannot fault. A
                        // transient fault is retried at once (up to the
                        // allowance); only an exhausted allowance surfaces
                        // as an error. Faulted answers are *not* cached,
                        // and fault decisions key on (poll key, attempt), so
                        // fault and retry counts are shard-independent.
                        let mut attempt: u32 = 0;
                        loop {
                            if let Some(kind) = self.fault.poll_fault(poll.key, attempt) {
                                self.faulted.fetch_add(1, Ordering::Relaxed);
                                if kind == PollFault::Timeout && !self.poll_rtt.is_zero() {
                                    std::thread::sleep(self.poll_rtt);
                                }
                                if attempt >= max_retries {
                                    return Err(DbError::Faulted(match kind {
                                        PollFault::Error => format!("poll rejected: {poll}"),
                                        PollFault::Timeout => format!("poll timed out: {poll}"),
                                    }));
                                }
                                self.retries.fetch_add(1, Ordering::Relaxed);
                                retries_spent += 1;
                                attempt += 1;
                                continue;
                            }
                            break;
                        }
                        self.issued.fetch_add(1, Ordering::Relaxed);
                        if !self.poll_rtt.is_zero() {
                            std::thread::sleep(self.poll_rtt);
                        }
                        let r = db.query_select(poll.select(), &[])?;
                        let ans = matches!(r.rows.first().and_then(|row| row.first()),
                                 Some(Value::Int(n)) if *n > 0);
                        (ans, PollAnswer::Issued)
                    }
                };
                cache.insert(poll.key, answer);
                (answer, source)
            }
        };
        drop(cache);
        if base {
            return Ok((Some(source), retries_spent));
        }
        if tuple_was_delete {
            // A join partner may have been deleted in the same batch:
            // re-check the residual against the other tables' Δ⁻ rows.
            if self.residual_hits_deleted_rows(db, poll)? {
                self.delete_guard_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Some(PollAnswer::DeleteGuard), retries_spent));
            }
        }
        Ok((None, retries_spent))
    }

    /// Exact Δ⁻ re-check for single-other-table residuals; coarse guard
    /// (any deletions at all) for multi-table residuals.
    fn residual_hits_deleted_rows(
        &self,
        db: &Database,
        poll: &PollingQuery,
    ) -> DbResult<bool> {
        let sel = poll.select();
        if let [only] = sel.from.as_slice() {
            let Some(delta) = self.deltas.for_table(&only.table) else {
                return Ok(false);
            };
            if delta.deleted.is_empty() {
                return Ok(false);
            }
            let residual = TypeAnalysis::new(sel, QueryShape::Conjunctive, db)?;
            for row in &delta.deleted {
                if residual.analyze_tuple(&[], 0, row)? == TupleImpact::Affected {
                    return Ok(true);
                }
            }
            Ok(false)
        } else {
            Ok(poll
                .other_tables
                .iter()
                .any(|t| self.deltas.has_deletions(t)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::{LogOp, LogRecord};

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT)").unwrap();
        db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5), ('Civic', 37.0)")
            .unwrap();
        db
    }

    fn poll(sql: &str) -> PollingQuery {
        let select = cacheportal_db::sql::parser::parse_select(sql).unwrap();
        PollingQuery::new(select, vec!["mileage".to_string()])
    }

    #[test]
    fn index_answers_definite_negative() {
        let db = db();
        let mut info = InfoManager::new();
        info.maintain_index(&db, "Mileage", "model").unwrap();
        assert_eq!(
            info.try_answer(&poll(
                "SELECT COUNT(*) FROM Mileage WHERE 'Edsel' = Mileage.model"
            )),
            Some(false)
        );
    }

    #[test]
    fn index_answers_definite_positive_when_sole_condition() {
        let db = db();
        let mut info = InfoManager::new();
        info.maintain_index(&db, "Mileage", "model").unwrap();
        assert_eq!(
            info.try_answer(&poll(
                "SELECT COUNT(*) FROM Mileage WHERE Mileage.model = 'Avalon'"
            )),
            Some(true)
        );
    }

    #[test]
    fn index_declines_with_extra_conjuncts_when_value_present() {
        let db = db();
        let mut info = InfoManager::new();
        info.maintain_index(&db, "Mileage", "model").unwrap();
        // Present value + extra condition: the index alone cannot decide.
        assert_eq!(
            info.try_answer(&poll(
                "SELECT COUNT(*) FROM Mileage WHERE Mileage.model = 'Avalon' AND Mileage.EPA > 100"
            )),
            None
        );
        // Absent value: definite no regardless of extra conjuncts.
        assert_eq!(
            info.try_answer(&poll(
                "SELECT COUNT(*) FROM Mileage WHERE Mileage.model = 'Edsel' AND Mileage.EPA > 1"
            )),
            Some(false)
        );
    }

    #[test]
    fn index_tracks_deltas_as_multiset() {
        let db = db();
        let mut info = InfoManager::new();
        info.maintain_index(&db, "Mileage", "model").unwrap();
        // Delete one of two Civic rows: value must remain present.
        let batch = vec![LogRecord {
            lsn: 0,
            table: "Mileage".into(),
            op: LogOp::Delete(vec!["Civic".into(), Value::Float(36.5)]),
        }];
        info.apply_deltas(&DeltaSet::from_records(&batch));
        assert_eq!(
            info.try_answer(&poll(
                "SELECT COUNT(*) FROM Mileage WHERE Mileage.model = 'Civic'"
            )),
            Some(true)
        );
        // Delete the second: now absent.
        let batch = vec![LogRecord {
            lsn: 1,
            table: "Mileage".into(),
            op: LogOp::Delete(vec!["Civic".into(), Value::Float(37.0)]),
        }];
        info.apply_deltas(&DeltaSet::from_records(&batch));
        assert_eq!(
            info.try_answer(&poll(
                "SELECT COUNT(*) FROM Mileage WHERE Mileage.model = 'Civic'"
            )),
            Some(false)
        );
    }

    #[test]
    fn runner_dedups_identical_polls() {
        let database = db();
        let info = InfoManager::new();
        let deltas = DeltaSet::default();
        let runner = PollRunner::new(&info, &deltas);
        let p = poll("SELECT COUNT(*) FROM Mileage WHERE Mileage.model = 'Avalon'");
        assert!(runner.decide(&database, &p, false).unwrap().is_some());
        assert!(runner.decide(&database, &p, false).unwrap().is_some());
        assert_eq!(runner.stats().issued, 1);
        assert_eq!(runner.stats().from_cache, 1);
    }

    #[test]
    fn concurrent_identical_polls_issue_exactly_once() {
        let database = db();
        let info = InfoManager::new();
        let deltas = DeltaSet::default();
        // A visible RTT widens the race window: without the stripe lock held
        // across execution, several threads would all miss the cache and
        // issue the same poll.
        let runner =
            PollRunner::with_rtt(&info, &deltas, std::time::Duration::from_millis(2));
        let p = poll("SELECT COUNT(*) FROM Mileage WHERE Mileage.EPA > 1");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| assert!(runner.decide(&database, &p, false).unwrap().is_some()));
            }
        });
        assert_eq!(runner.stats().issued, 1, "exactly-once across threads");
        assert_eq!(runner.stats().from_cache, 7);
    }

    #[test]
    fn delete_guard_catches_same_batch_partner_deletion() {
        let mut database = db();
        // Delete the Avalon row and analyze a Car-side delete whose partner
        // it was: the post-state poll finds nothing, the guard must fire.
        database
            .execute("DELETE FROM Mileage WHERE model = 'Avalon'")
            .unwrap();
        let recs: Vec<LogRecord> = database.update_log().pull_since(0).to_vec();
        let deltas = DeltaSet::from_records(&recs);
        let info = InfoManager::new();
        let runner = PollRunner::new(&info, &deltas);
        let p = poll("SELECT COUNT(*) FROM Mileage WHERE 'Avalon' = Mileage.model");
        assert!(
            runner.decide(&database, &p, true).unwrap().is_some(),
            "deleted partner must still count for a deleted tuple"
        );
        assert_eq!(runner.stats().delete_guard_hits, 1);
        // For an *inserted* tuple the guard must not fire.
        let runner2 = PollRunner::new(&info, &deltas);
        assert!(runner2.decide(&database, &p, false).unwrap().is_none());
    }

    #[test]
    fn decide_reports_the_answer_source() {
        let database = db();
        let mut info = InfoManager::new();
        info.maintain_index(&database, "Mileage", "model").unwrap();
        let deltas = DeltaSet::default();
        let runner = PollRunner::new(&info, &deltas);
        // Index answers the sole-equality poll without touching the DBMS.
        let p = poll("SELECT COUNT(*) FROM Mileage WHERE Mileage.model = 'Avalon'");
        assert_eq!(
            runner.decide(&database, &p, false).unwrap(),
            Some(PollAnswer::FromIndex)
        );
        assert_eq!(
            runner.decide(&database, &p, false).unwrap(),
            Some(PollAnswer::FromCache)
        );
        // Undecidable by index → issued against the DBMS.
        let q = poll("SELECT COUNT(*) FROM Mileage WHERE Mileage.EPA > 1");
        assert_eq!(
            runner.decide(&database, &q, false).unwrap(),
            Some(PollAnswer::Issued)
        );
        assert_eq!(runner.stats().issued, 1);
    }

    #[test]
    fn guard_negative_when_deleted_rows_do_not_match() {
        let mut database = db();
        database
            .execute("DELETE FROM Mileage WHERE model = 'Civic'")
            .unwrap();
        let recs: Vec<LogRecord> = database.update_log().pull_since(0).to_vec();
        let deltas = DeltaSet::from_records(&recs);
        let info = InfoManager::new();
        let runner = PollRunner::new(&info, &deltas);
        let p = poll("SELECT COUNT(*) FROM Mileage WHERE 'Edsel' = Mileage.model");
        assert!(runner.decide(&database, &p, true).unwrap().is_none());
    }

    /// A poll as the analysis builds it — a tree — whose text does not read
    /// back as itself: `inf` lexes as a column name.
    fn poll_with_unreadable_text(model: &str) -> PollingQuery {
        let mut select = cacheportal_db::sql::parser::parse_select(&format!(
            "SELECT COUNT(*) FROM Mileage WHERE '{model}' = Mileage.model AND Mileage.EPA < 0"
        ))
        .unwrap();
        select.where_clause = select.where_clause.map(|w| {
            w.transform(&|e| {
                (*e == Expr::Literal(Value::Int(0)))
                    .then_some(Expr::Literal(Value::Float(f64::INFINITY)))
            })
        });
        let poll = PollingQuery::new(select, vec!["mileage".to_string()]);
        assert_ne!(
            cacheportal_db::sql::parser::parse_select(&poll.sql()).ok().as_ref(),
            Some(poll.select())
        );
        poll
    }

    #[test]
    fn guard_and_index_read_the_tree_never_the_text() {
        let mut database = db();
        let mut info = InfoManager::new();
        info.maintain_index(&database, "Mileage", "model").unwrap();
        let indexed_at = database.high_water();
        database
            .execute("DELETE FROM Mileage WHERE model = 'Avalon'")
            .unwrap();
        let recs: Vec<LogRecord> = database.update_log().pull_since(indexed_at).to_vec();
        let deltas = DeltaSet::from_records(&recs);
        info.apply_deltas(&deltas);
        // The index says no Avalon is left; the guard finds the deleted
        // partner. Re-parsing the text would have found neither: it names a
        // column `inf`.
        let p = poll_with_unreadable_text("Avalon");
        assert_eq!(info.try_answer(&p), Some(false));
        let runner = PollRunner::new(&info, &deltas);
        assert_eq!(
            runner.decide(&database, &p, true).unwrap(),
            Some(PollAnswer::DeleteGuard)
        );
        // And the engine runs it as built.
        let none = InfoManager::new();
        let runner = PollRunner::new(&none, &deltas);
        let civic = poll_with_unreadable_text("Civic");
        assert_eq!(
            runner.decide(&database, &civic, false).unwrap(),
            Some(PollAnswer::Issued)
        );
    }

    #[test]
    fn retry_clears_transient_fault_and_counts() {
        use cacheportal_db::{FaultPlan, FaultSpec};
        let database = db();
        let info = InfoManager::new();
        let deltas = DeltaSet::default();
        let p = poll("SELECT COUNT(*) FROM Mileage WHERE Mileage.EPA > 1");
        // Find a seed where this poll faults on attempt 0 but clears on
        // attempt 1 — a transient fault by construction.
        let seed = (0..10_000u64)
            .find(|&s| {
                let probe = FaultPlan::new(FaultSpec {
                    seed: s,
                    poll_error: 0.5,
                    ..FaultSpec::default()
                });
                probe.poll_fault(p.key, 0).is_some() && probe.poll_fault(p.key, 1).is_none()
            })
            .expect("a transient seed exists");
        let spec = FaultSpec {
            seed,
            poll_error: 0.5,
            ..FaultSpec::default()
        };
        // Without a retry allowance the poll permanently fails…
        let runner =
            PollRunner::new(&info, &deltas).with_fault_plan(FaultPlan::new(spec.clone()));
        assert!(runner.decide(&database, &p, false).is_err());
        assert_eq!(runner.stats().faulted, 1);
        assert_eq!(runner.stats().retries, 0);
        // …with one retry it recovers, and the accounting shows the failed
        // attempt, the retry, and the eventually-issued poll.
        let runner = PollRunner::new(&info, &deltas)
            .with_fault_plan(FaultPlan::new(spec))
            .with_retry(1);
        assert_eq!(
            runner.decide(&database, &p, false).unwrap(),
            Some(PollAnswer::Issued)
        );
        let s = runner.stats();
        assert_eq!((s.faulted, s.retries, s.issued), (1, 1, 1));
    }

    #[test]
    fn maintain_index_is_idempotent_and_sized() {
        let db = db();
        let mut info = InfoManager::new();
        info.maintain_index(&db, "Mileage", "model").unwrap();
        info.maintain_index(&db, "mileage", "MODEL").unwrap();
        assert_eq!(info.indexes().len(), 1);
        assert_eq!(info.indexes()[0].distinct_values(), 2); // Avalon, Civic
    }
}
