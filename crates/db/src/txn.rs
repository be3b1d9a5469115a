//! Single-writer transactions.
//!
//! The engine applies statements immediately; a [`Transaction`] remembers
//! the update-log position at `begin` and, on rollback, undoes everything
//! after it (re-inserting deleted rows, deleting inserted rows) and rewinds
//! the log — so log consumers (the invalidator!) only ever observe
//! *committed* changes. Holding `&mut Database` makes the transaction the
//! sole writer for its lifetime, which is exactly the isolation level the
//! paper's workload needs (backend update processes apply atomic business
//! operations like "insert the car and its mileage record together").
//!
//! Dropping a transaction without calling [`Transaction::commit`] rolls it
//! back.

use crate::engine::{Database, ExecOutcome};
use crate::error::DbResult;
use crate::log::{LogOp, Lsn};
use crate::value::Value;

/// An open transaction. Created by [`Database::begin`].
pub struct Transaction<'a> {
    db: &'a mut Database,
    start_lsn: Lsn,
    finished: bool,
}

impl Database {
    /// Begin a transaction. The returned guard is the only writer until it
    /// commits, rolls back, or is dropped (drop = rollback).
    pub fn begin(&mut self) -> Transaction<'_> {
        let start_lsn = self.high_water();
        self.note_txn_begin();
        Transaction {
            db: self,
            start_lsn,
            finished: false,
        }
    }
}

impl Transaction<'_> {
    /// Consult the database's fault plan before a statement runs. An
    /// injected abort surfaces as [`DbError::Faulted`]; the caller is
    /// expected to roll back (or drop the guard, which rolls back), so the
    /// update log never exposes the partial transaction.
    fn check_injected_abort(&self) -> DbResult<()> {
        if self.db.fault_plan().txn_abort() {
            return Err(crate::error::DbError::Faulted(
                "transaction aborted mid-stream".into(),
            ));
        }
        Ok(())
    }

    /// Execute a statement inside the transaction.
    pub fn execute(&mut self, sql: &str) -> DbResult<ExecOutcome> {
        self.check_injected_abort()?;
        self.db.execute(sql)
    }

    /// Execute with positional parameters.
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecOutcome> {
        self.check_injected_abort()?;
        self.db.execute_with_params(sql, params)
    }

    /// Run a SELECT inside the transaction (sees its own writes).
    pub fn query(&mut self, sql: &str) -> DbResult<crate::exec::QueryResult> {
        self.db.query(sql)
    }

    /// Make the transaction's changes permanent. Returns the inclusive LSN
    /// range the transaction appended to the update log (`None` if it wrote
    /// nothing) — the handle downstream provenance keys eject chains on.
    pub fn commit(mut self) -> Option<(Lsn, Lsn)> {
        self.finished = true;
        self.db.note_txn_commit();
        let end = self.db.high_water();
        (end > self.start_lsn).then(|| (self.start_lsn, end - 1))
    }

    /// Undo every change made since `begin`.
    pub fn rollback(mut self) -> DbResult<()> {
        self.finished = true;
        self.rollback_inner()
    }

    fn rollback_inner(&mut self) -> DbResult<()> {
        self.db.note_txn_abort();
        // Collect the records to undo (newest first).
        let records: Vec<(std::sync::Arc<str>, LogOp)> = self
            .db
            .update_log()
            .pull_since(self.start_lsn)
            .iter()
            .rev()
            .map(|r| (r.table.clone(), r.op.clone()))
            .collect();
        for (table, op) in records {
            match op {
                LogOp::Insert(row) => {
                    // Remove exactly one copy of the inserted row.
                    let t = self.db.catalog_mut().require_mut(&table)?;
                    if let Some(rid) = t.find_equal(&row) {
                        t.delete(rid);
                    }
                }
                LogOp::Delete(row) => {
                    let t = self.db.catalog_mut().require_mut(&table)?;
                    t.insert(row)?;
                }
            }
        }
        // Rewind the log: the aborted records were never committed.
        self.db.update_log_mut().rewind_to(self.start_lsn);
        Ok(())
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort rollback on drop; schema errors cannot occur when
            // undoing rows that were just present.
            let _ = self.rollback_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))")
            .unwrap();
        db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT)").unwrap();
        db.execute("INSERT INTO Car VALUES ('Honda','Civic',18000)").unwrap();
        db
    }

    #[test]
    fn commit_keeps_changes_and_log() {
        let mut db = db();
        let hw = db.high_water();
        let mut tx = db.begin();
        tx.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
        tx.execute("INSERT INTO Mileage VALUES ('Rio', 33.0)").unwrap();
        assert_eq!(tx.commit(), Some((hw, hw + 1)), "committed LSN range");
        assert_eq!(db.query("SELECT * FROM Car").unwrap().rows.len(), 2);
        assert_eq!(db.update_log().pull_since(hw).len(), 2);
    }

    #[test]
    fn empty_commit_reports_no_lsn_range() {
        let mut db = db();
        let tx = db.begin();
        assert_eq!(tx.commit(), None);
    }

    #[test]
    fn rollback_restores_state_and_rewinds_log() {
        let mut db = db();
        let before = db.query("SELECT * FROM Car ORDER BY model").unwrap();
        let hw = db.high_water();
        let tx_result = {
            let mut tx = db.begin();
            tx.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
            tx.execute("UPDATE Car SET price = 99999 WHERE model = 'Civic'").unwrap();
            tx.execute("DELETE FROM Car WHERE model = 'Civic'").unwrap();
            // Transaction sees its own writes.
            assert_eq!(tx.query("SELECT * FROM Car").unwrap().rows.len(), 1);
            tx.rollback()
        };
        tx_result.unwrap();
        assert_eq!(db.query("SELECT * FROM Car ORDER BY model").unwrap(), before);
        assert_eq!(
            db.update_log().pull_since(hw).len(),
            0,
            "aborted records are not visible to log consumers"
        );
        assert_eq!(db.high_water(), hw, "LSNs rewound");
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let mut db = db();
        {
            let mut tx = db.begin();
            tx.execute("DELETE FROM Car").unwrap();
            // dropped here
        }
        assert_eq!(db.query("SELECT * FROM Car").unwrap().rows.len(), 1);
    }

    #[test]
    fn rollback_preserves_index_consistency() {
        let mut db = db();
        {
            let mut tx = db.begin();
            tx.execute("UPDATE Car SET model = 'CivicX' WHERE model = 'Civic'")
                .unwrap();
        } // rollback on drop
        // Index must still find the original value.
        let r = db
            .query("SELECT * FROM Car WHERE model = 'Civic'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = db
            .query("SELECT * FROM Car WHERE model = 'CivicX'")
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn injected_abort_rolls_back_cleanly() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut db = db();
        let hw = db.high_water();
        db.set_fault_plan(FaultPlan::new(FaultSpec {
            txn_abort: 1.0,
            ..FaultSpec::default()
        }));
        {
            let mut tx = db.begin();
            let err = tx.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)");
            assert!(matches!(err, Err(crate::error::DbError::Faulted(_))));
            // dropped → rollback
        }
        assert_eq!(db.fault_plan().counts().txn_aborts, 1);
        assert_eq!(db.high_water(), hw, "log never exposed the aborted txn");
        assert_eq!(db.query("SELECT * FROM Car").unwrap().rows.len(), 1);
    }

    #[test]
    fn sequential_transactions_interleave_cleanly() {
        let mut db = db();
        {
            let mut tx = db.begin();
            tx.execute("INSERT INTO Car VALUES ('A','a',1)").unwrap();
            tx.commit();
        }
        {
            let mut tx = db.begin();
            tx.execute("INSERT INTO Car VALUES ('B','b',2)").unwrap();
            // rolled back
        }
        {
            let mut tx = db.begin();
            tx.execute("INSERT INTO Car VALUES ('C','c',3)").unwrap();
            tx.commit();
        }
        let r = db.query("SELECT maker FROM Car ORDER BY maker").unwrap();
        let makers: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(makers, vec!["A", "C", "Honda"]);
        // Log contains exactly the committed inserts (plus seeding).
        assert_eq!(db.update_log().len(), 3);
    }
}
