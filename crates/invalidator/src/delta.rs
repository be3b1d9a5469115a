//! Update processing (§4.2.1): pull the DBMS update log at each
//! synchronization point and group the records per relation into Δ⁺R
//! (insertions) and Δ⁻R (deletions).

use cacheportal_db::table::Row;
use cacheportal_db::{LogOp, LogRecord, Lsn};
use std::collections::HashMap;

/// One relation's delta for a sync interval.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TableDelta {
    /// Δ⁺R — inserted rows.
    pub inserted: Vec<Row>,
    /// Δ⁻R — deleted rows (old images).
    pub deleted: Vec<Row>,
}

impl TableDelta {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Number of delta tuples.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// Iterate all delta tuples, tagged with whether they were inserted.
    pub fn tuples(&self) -> impl Iterator<Item = (&Row, bool)> {
        self.inserted
            .iter()
            .map(|r| (r, true))
            .chain(self.deleted.iter().map(|r| (r, false)))
    }
}

/// Per-table ΔR group sizes (provenance summary of one sync batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaGroupStat {
    /// Lower-cased table name.
    pub table: String,
    /// |Δ⁺R| — rows inserted.
    pub inserted: u64,
    /// |Δ⁻R| — rows deleted.
    pub deleted: u64,
}

/// All deltas for one sync interval.
#[derive(Debug, Default, Clone)]
pub struct DeltaSet {
    /// Lower-cased table name → delta.
    tables: HashMap<String, TableDelta>,
    /// First LSN *after* this batch.
    pub next_lsn: Lsn,
    /// Raw record count.
    pub records: usize,
}

impl DeltaSet {
    /// Group a slice of log records (as returned by `pull_since`).
    pub fn from_records(records: &[LogRecord]) -> DeltaSet {
        let mut set = DeltaSet::default();
        for rec in records {
            let delta = set
                .tables
                .entry(rec.table.to_ascii_lowercase())
                .or_default();
            match &rec.op {
                LogOp::Insert(row) => delta.inserted.push(row.clone()),
                LogOp::Delete(row) => delta.deleted.push(row.clone()),
            }
            set.next_lsn = set.next_lsn.max(rec.lsn + 1);
        }
        set.records = records.len();
        set
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Delta for `table`, if it changed this interval.
    pub fn for_table(&self, table: &str) -> Option<&TableDelta> {
        self.tables.get(&table.to_ascii_lowercase())
    }

    /// Names (lower-cased) of tables with changes.
    pub fn touched_tables(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Per-table ΔR group sizes, sorted by table name (the HashMap iteration
    /// order is not deterministic; provenance records must be).
    pub fn group_stats(&self) -> Vec<DeltaGroupStat> {
        let mut groups: Vec<DeltaGroupStat> = self
            .tables
            .iter()
            .map(|(t, d)| DeltaGroupStat {
                table: t.clone(),
                inserted: d.inserted.len() as u64,
                deleted: d.deleted.len() as u64,
            })
            .collect();
        groups.sort_by(|a, b| a.table.cmp(&b.table));
        groups
    }

    /// Did `table` have deletions this interval? (Used by the same-batch
    /// correlated-delete guard in the analysis module.)
    pub fn has_deletions(&self, table: &str) -> bool {
        self.tables
            .get(&table.to_ascii_lowercase())
            .is_some_and(|d| !d.deleted.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::Value;

    fn rec(lsn: Lsn, table: &str, op: LogOp) -> LogRecord {
        LogRecord {
            lsn,
            table: table.into(),
            op,
        }
    }

    #[test]
    fn groups_by_table_and_op() {
        let records = vec![
            rec(0, "Car", LogOp::Insert(vec![Value::Int(1)])),
            rec(1, "Car", LogOp::Delete(vec![Value::Int(2)])),
            rec(2, "Mileage", LogOp::Insert(vec![Value::Int(3)])),
        ];
        let set = DeltaSet::from_records(&records);
        assert_eq!(set.records, 3);
        assert_eq!(set.next_lsn, 3);
        let car = set.for_table("CAR").unwrap();
        assert_eq!(car.inserted.len(), 1);
        assert_eq!(car.deleted.len(), 1);
        assert_eq!(car.len(), 2);
        assert!(set.for_table("mileage").is_some());
        assert!(set.for_table("absent").is_none());
        assert!(set.has_deletions("car"));
        assert!(!set.has_deletions("mileage"));
    }

    #[test]
    fn empty_batch() {
        let set = DeltaSet::from_records(&[]);
        assert!(set.is_empty());
        assert_eq!(set.next_lsn, 0);
        assert_eq!(set.touched_tables().count(), 0);
    }

    #[test]
    fn tuples_iterates_both_kinds() {
        let records = vec![
            rec(0, "t", LogOp::Insert(vec![Value::Int(1)])),
            rec(1, "t", LogOp::Delete(vec![Value::Int(2)])),
        ];
        let set = DeltaSet::from_records(&records);
        let tags: Vec<bool> = set.for_table("t").unwrap().tuples().map(|(_, i)| i).collect();
        assert_eq!(tags, vec![true, false]);
    }
}
