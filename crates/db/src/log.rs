//! The database **update log** — the invalidator's window into data changes.
//!
//! Every committed mutation appends a [`LogRecord`] with a monotonically
//! increasing log sequence number (LSN). An SQL `UPDATE` is logged as a
//! delete of the old image followed by an insert of the new image, which is
//! exactly the Δ⁻R / Δ⁺R decomposition of §4.2.1 of the paper.

use crate::table::Row;
use std::sync::Arc;

/// Logical timestamp of a mutation (monotonic counter).
pub type Lsn = u64;

/// What changed.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// Row inserted (full image).
    Insert(Row),
    /// Row deleted (full image).
    Delete(Row),
}

/// One committed mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Log sequence number.
    pub lsn: Lsn,
    /// Table the mutation applied to: a handle on the table's own name, so
    /// a record allocates nothing for it.
    pub table: Arc<str>,
    /// What changed.
    pub op: LogOp,
}

/// Records of capacity [`UpdateLog::truncate`] always leaves alone: a
/// steady-state window fills and empties the log without reallocating.
const TRUNCATE_KEEP: usize = 256;

/// Append-only update log.
#[derive(Debug, Default)]
pub struct UpdateLog {
    records: Vec<LogRecord>,
    next_lsn: Lsn,
}

impl UpdateLog {
    /// Create an empty log.
    pub fn new() -> Self {
        UpdateLog::default()
    }

    /// Append a record; returns its LSN.
    pub fn append(&mut self, table: Arc<str>, op: LogOp) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records.push(LogRecord { lsn, table, op });
        lsn
    }

    /// LSN that the *next* append will receive. `pull_since(high_water())`
    /// is always empty.
    pub fn high_water(&self) -> Lsn {
        self.next_lsn
    }

    /// All records with `lsn >= since`, in LSN order. This is the polling
    /// interface the invalidator uses at each synchronization point.
    pub fn pull_since(&self, since: Lsn) -> &[LogRecord] {
        // Records are dense (lsn == index) as long as the log is not
        // truncated; binary search keeps this correct even after truncation.
        let start = self.records.partition_point(|r| r.lsn < since);
        &self.records[start..]
    }

    /// Drop records below `below` (already consumed by every subscriber),
    /// and give back the room of a burst — a bulk load, a long outage —
    /// once the log holds a quarter of it or less.
    pub fn truncate(&mut self, below: Lsn) {
        let start = self.records.partition_point(|r| r.lsn < below);
        self.records.drain(..start);
        let keep = self.records.len().max(TRUNCATE_KEEP);
        if self.records.capacity() > 4 * keep {
            self.records.shrink_to(2 * keep);
        }
    }

    /// Abort support: remove every record with `lsn >= at` and rewind the
    /// LSN counter so the aborted records were never visible. Only the
    /// single writer that appended them (an open transaction) may call this.
    pub fn rewind_to(&mut self, at: Lsn) {
        let start = self.records.partition_point(|r| r.lsn < at);
        self.records.truncate(start);
        self.next_lsn = self.next_lsn.min(at.max(
            self.records.last().map(|r| r.lsn + 1).unwrap_or(0),
        ));
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rec(i: i64) -> LogOp {
        LogOp::Insert(vec![Value::Int(i)])
    }

    #[test]
    fn lsns_are_monotonic_and_dense() {
        let mut log = UpdateLog::new();
        assert_eq!(log.append("t".into(), rec(1)), 0);
        assert_eq!(log.append("t".into(), rec(2)), 1);
        assert_eq!(log.high_water(), 2);
    }

    #[test]
    fn pull_since_returns_suffix() {
        let mut log = UpdateLog::new();
        for i in 0..5 {
            log.append("t".into(), rec(i));
        }
        assert_eq!(log.pull_since(0).len(), 5);
        assert_eq!(log.pull_since(3).len(), 2);
        assert_eq!(log.pull_since(3)[0].lsn, 3);
        assert!(log.pull_since(log.high_water()).is_empty());
    }

    #[test]
    fn truncate_preserves_pull_semantics() {
        let mut log = UpdateLog::new();
        for i in 0..10 {
            log.append("t".into(), rec(i));
        }
        log.truncate(6);
        assert_eq!(log.len(), 4);
        assert_eq!(log.pull_since(0).len(), 4, "truncated records are gone");
        assert_eq!(log.pull_since(8).len(), 2);
        // appends continue from the same LSN sequence
        assert_eq!(log.append("t".into(), rec(99)), 10);
    }

    #[test]
    fn truncate_gives_a_bulk_loads_capacity_back() {
        let mut log = UpdateLog::new();
        for i in 0..8000 {
            log.append("t".into(), rec(i));
        }
        assert!(log.records.capacity() >= 8000);
        log.truncate(7990);
        assert!(
            log.records.capacity() <= 2 * TRUNCATE_KEEP,
            "{} records of capacity for 10 retained",
            log.records.capacity()
        );
        // What is retained reads as before, and the log goes on.
        assert_eq!(log.pull_since(0).len(), 10);
        assert_eq!(log.pull_since(7995)[0].lsn, 7995);
        assert_eq!(log.append("t".into(), rec(0)), 8000);
        log.rewind_to(7998);
        assert_eq!((log.len(), log.high_water()), (8, 7998));
        // A steady-state window keeps its room: no shrink, no regrowth.
        log.truncate(log.high_water());
        let settled = log.records.capacity();
        for _ in 0..5 {
            for i in 0..TRUNCATE_KEEP as i64 {
                log.append("t".into(), rec(i));
            }
            log.truncate(log.high_water());
            assert_eq!(log.records.capacity(), settled);
        }
    }
}
