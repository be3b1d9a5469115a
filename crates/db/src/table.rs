//! Heap tables with optional secondary indexes.
//!
//! Rows live in a slotted `Vec<Option<Row>>`; a [`RowId`] is the slot number
//! and stays stable for the lifetime of the row. Secondary indexes are hash
//! indexes (`value → row ids`) maintained on insert/delete; the planner uses
//! them for equality predicates, which is the dominant access path in the
//! paper's workload (join-attribute lookups and polling queries).

use crate::error::{DbError, DbResult};
use crate::schema::SchemaRef;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// Stable identifier of a row within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// An owned row of values.
pub type Row = Vec<Value>;

/// The row ids under one index key, in row-id order — which is storage
/// order — so rows fetched through an index come out in the order a scan
/// would emit them. A key that holds one row (every key of a key column)
/// keeps its id inline and costs no allocation.
#[derive(Debug)]
enum Bucket {
    One(RowId),
    Many(Vec<RowId>),
}

impl Bucket {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Bucket::One(rid) => std::slice::from_ref(rid),
            Bucket::Many(rids) => rids,
        }
    }

    /// Add `rid` in order. (`replace` re-inserts an existing id; everything
    /// else appends the newest.)
    fn insert(&mut self, rid: RowId) {
        match self {
            Bucket::One(first) => {
                let pair = if *first < rid { [*first, rid] } else { [rid, *first] };
                *self = Bucket::Many(pair.to_vec());
            }
            Bucket::Many(rids) => {
                let at = rids.partition_point(|r| *r < rid);
                rids.insert(at, rid);
            }
        }
    }

    /// Remove `rid`; true when no id is left.
    fn remove(&mut self, rid: RowId) -> bool {
        match self {
            Bucket::One(only) => *only == rid,
            Bucket::Many(rids) => {
                rids.retain(|r| *r != rid);
                rids.is_empty()
            }
        }
    }
}

/// Hash index over one column.
#[derive(Debug, Default)]
struct HashIndex {
    column: usize,
    map: HashMap<Value, Bucket>,
}

impl HashIndex {
    fn insert(&mut self, rid: RowId, row: &[Value]) {
        match self.map.get_mut(&row[self.column]) {
            Some(bucket) => bucket.insert(rid),
            None => {
                self.map.insert(row[self.column].clone(), Bucket::One(rid));
            }
        }
    }

    fn remove(&mut self, rid: RowId, row: &[Value]) {
        let key = &row[self.column];
        if self.map.get_mut(key).is_some_and(|b| b.remove(rid)) {
            self.map.remove(key);
        }
    }

    fn lookup(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map_or(&[], Bucket::as_slice)
    }
}

/// Ordered (B-tree) index over one column, supporting range scans.
#[derive(Debug, Default)]
struct RangeIndex {
    column: usize,
    map: BTreeMap<Value, Bucket>,
}

impl RangeIndex {
    fn insert(&mut self, rid: RowId, row: &[Value]) {
        match self.map.get_mut(&row[self.column]) {
            Some(bucket) => bucket.insert(rid),
            None => {
                self.map.insert(row[self.column].clone(), Bucket::One(rid));
            }
        }
    }

    fn remove(&mut self, rid: RowId, row: &[Value]) {
        let key = &row[self.column];
        if self.map.get_mut(key).is_some_and(|b| b.remove(rid)) {
            self.map.remove(key);
        }
    }

    /// Row ids within the bounds, in storage order.
    fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        // `BETWEEN 4 AND 1` holds no rows; `BTreeMap::range` would panic.
        if matches!((low, high), (Bound::Included(a), Bound::Included(b)) if a > b) {
            return Vec::new();
        }
        let mut rids: Vec<RowId> = self
            .map
            .range::<Value, _>((low, high))
            .flat_map(|(_, rids)| rids.as_slice().iter().copied())
            .collect();
        rids.sort_unstable();
        rids
    }
}

/// One heap table.
#[derive(Debug)]
pub struct Table {
    name: Arc<str>,
    schema: SchemaRef,
    slots: Vec<Option<Row>>,
    live: usize,
    indexes: Vec<HashIndex>,
    range_indexes: Vec<RangeIndex>,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(name: impl Into<Arc<str>>, schema: SchemaRef) -> Self {
        Table {
            name: name.into(),
            schema,
            slots: Vec::new(),
            live: 0,
            indexes: Vec::new(),
            range_indexes: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A handle on the table name, for update-log records.
    pub(crate) fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// The table’s schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Create a hash index on `column` (by name); backfills existing rows.
    /// Idempotent: creating an index that exists is a no-op.
    pub fn create_index(&mut self, column: &str) -> DbResult<()> {
        let col = self.schema.require(column)?;
        if self.indexes.iter().any(|ix| ix.column == col) {
            return Ok(());
        }
        let mut ix = HashIndex {
            column: col,
            map: HashMap::new(),
        };
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                ix.insert(RowId(i as u64), row);
            }
        }
        self.indexes.push(ix);
        Ok(())
    }

    /// Columns that have a hash index, by position.
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.indexes.iter().map(|ix| ix.column).collect()
    }

    /// Create an ordered (B-tree) index on `column`; backfills existing
    /// rows. Idempotent.
    pub fn create_range_index(&mut self, column: &str) -> DbResult<()> {
        let col = self.schema.require(column)?;
        if self.range_indexes.iter().any(|ix| ix.column == col) {
            return Ok(());
        }
        let mut ix = RangeIndex {
            column: col,
            map: BTreeMap::new(),
        };
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                ix.insert(RowId(i as u64), row);
            }
        }
        self.range_indexes.push(ix);
        Ok(())
    }

    /// True if `column` (by position) has an ordered index.
    pub fn has_range_index(&self, column: usize) -> bool {
        self.range_indexes.iter().any(|ix| ix.column == column)
    }

    /// Ordered-index range scan: row ids with `column` values within the
    /// bounds, in storage order, if a range index exists on that column.
    pub fn range_lookup(
        &self,
        column: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Option<Vec<RowId>> {
        self.range_indexes
            .iter()
            .find(|ix| ix.column == column)
            .map(|ix| ix.range(low, high))
    }

    /// Insert a row after validating it against the schema.
    pub fn insert(&mut self, row: Row) -> DbResult<RowId> {
        self.schema.check_row(&row)?;
        let rid = RowId(self.slots.len() as u64);
        for ix in &mut self.indexes {
            ix.insert(rid, &row);
        }
        for ix in &mut self.range_indexes {
            ix.insert(rid, &row);
        }
        self.slots.push(Some(row));
        self.live += 1;
        Ok(rid)
    }

    /// Delete by row id; returns the removed row if it was live.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        let slot = self.slots.get_mut(rid.0 as usize)?;
        let row = slot.take()?;
        for ix in &mut self.indexes {
            ix.remove(rid, &row);
        }
        for ix in &mut self.range_indexes {
            ix.remove(rid, &row);
        }
        self.live -= 1;
        Some(row)
    }

    /// Replace the row at `rid` (used by UPDATE). Indexes are maintained.
    pub fn replace(&mut self, rid: RowId, new_row: Row) -> DbResult<Option<Row>> {
        self.schema.check_row(&new_row)?;
        let Some(slot) = self.slots.get_mut(rid.0 as usize) else {
            return Ok(None);
        };
        let Some(old) = slot.take() else {
            return Ok(None);
        };
        for ix in &mut self.indexes {
            ix.remove(rid, &old);
            ix.insert(rid, &new_row);
        }
        for ix in &mut self.range_indexes {
            ix.remove(rid, &old);
            ix.insert(rid, &new_row);
        }
        *slot = Some(new_row);
        Ok(Some(old))
    }

    /// Row by id, if live.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.slots.get(rid.0 as usize).and_then(Option::as_ref)
    }

    /// Iterate live rows with their ids.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (RowId(i as u64), r)))
    }

    /// Index lookup: row ids whose `column` equals `key`, in storage order,
    /// if an index exists.
    pub fn index_lookup(&self, column: usize, key: &Value) -> Option<&[RowId]> {
        self.indexes
            .iter()
            .find(|ix| ix.column == column)
            .map(|ix| ix.lookup(key))
    }

    /// True if `column` (by position) has a hash index.
    pub fn has_index(&self, column: usize) -> bool {
        self.indexes.iter().any(|ix| ix.column == column)
    }

    /// Distinct values in the hash index on `column`, if there is one (the
    /// planner's fan-out estimate for a join on that column).
    pub fn index_keys(&self, column: usize) -> Option<usize> {
        self.indexes
            .iter()
            .find(|ix| ix.column == column)
            .map(|ix| ix.map.len())
    }

    /// Materialize all live rows (test/oracle helper).
    pub fn rows(&self) -> Vec<Row> {
        self.scan().map(|(_, r)| r.clone()).collect()
    }

    /// Find the first live row equal to `row` (used for delete-by-value,
    /// which is how the update log replays deletions).
    pub fn find_equal(&self, row: &[Value]) -> Option<RowId> {
        // Prefer an index probe: any index is authoritative for its column,
        // so the first one decides.
        if let Some(ix) = self.indexes.first() {
            let key = &row[ix.column];
            return ix
                .lookup(key)
                .iter()
                .copied()
                .find(|rid| self.get(*rid).is_some_and(|r| r == row));
        }
        self.scan().find(|(_, r)| r.as_slice() == row).map(|(rid, _)| rid)
    }
}

/// Named collection of tables (the database catalog).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<Table>,
}

impl Catalog {
    /// Create an empty table with the given schema.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table; errors if the name exists.
    pub fn create_table(&mut self, table: Table) -> DbResult<()> {
        if self.get(table.name()).is_some() {
            return Err(DbError::TableExists(table.name().to_string()));
        }
        self.tables.push(table);
        Ok(())
    }

    /// Remove a table by name (case-insensitive).
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        let before = self.tables.len();
        self.tables
            .retain(|t| !t.name.eq_ignore_ascii_case(name));
        if self.tables.len() == before {
            return Err(DbError::UnknownTable(name.to_string()));
        }
        Ok(())
    }

    /// Row by id, if live.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Mutable lookup by name (case-insensitive).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables
            .iter_mut()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Lookup by name or `UnknownTable` error.
    pub fn require(&self, name: &str) -> DbResult<&Table> {
        self.get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Mutable lookup by name or `UnknownTable` error.
    pub fn require_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Schema};

    fn car_table() -> Table {
        let schema = Schema::of(&[
            ("maker", ColType::Str),
            ("model", ColType::Str),
            ("price", ColType::Int),
        ]);
        Table::new("Car", schema)
    }

    fn row(maker: &str, model: &str, price: i64) -> Row {
        vec![maker.into(), model.into(), Value::Int(price)]
    }

    #[test]
    fn insert_scan_delete() {
        let mut t = car_table();
        let r1 = t.insert(row("Toyota", "Avalon", 25000)).unwrap();
        let _r2 = t.insert(row("Mitsubishi", "Eclipse", 20000)).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.delete(r1).is_some());
        assert_eq!(t.len(), 1);
        assert!(t.delete(r1).is_none(), "double delete is a no-op");
        let rows = t.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Str("Eclipse".into()));
    }

    #[test]
    fn index_maintained_across_mutations() {
        let mut t = car_table();
        t.create_index("model").unwrap();
        let r1 = t.insert(row("Toyota", "Avalon", 25000)).unwrap();
        t.insert(row("Toyota", "Corolla", 15000)).unwrap();
        let hits = t.index_lookup(1, &Value::Str("Avalon".into())).unwrap();
        assert_eq!(hits, &[r1]);
        t.delete(r1);
        let hits = t.index_lookup(1, &Value::Str("Avalon".into())).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn index_backfill_on_create() {
        let mut t = car_table();
        t.insert(row("a", "m1", 1)).unwrap();
        t.insert(row("b", "m1", 2)).unwrap();
        t.create_index("model").unwrap();
        assert_eq!(t.index_lookup(1, &Value::Str("m1".into())).unwrap().len(), 2);
        // idempotent
        t.create_index("model").unwrap();
        assert_eq!(t.indexed_columns(), vec![1]);
    }

    #[test]
    fn replace_updates_indexes() {
        let mut t = car_table();
        t.create_index("model").unwrap();
        let r = t.insert(row("a", "m1", 1)).unwrap();
        t.replace(r, row("a", "m2", 1)).unwrap();
        assert!(t.index_lookup(1, &Value::Str("m1".into())).unwrap().is_empty());
        assert_eq!(t.index_lookup(1, &Value::Str("m2".into())).unwrap(), &[r]);
    }

    #[test]
    fn find_equal_uses_index_and_fallback() {
        let mut t = car_table();
        let r = t.insert(row("a", "m1", 1)).unwrap();
        assert_eq!(t.find_equal(&row("a", "m1", 1)), Some(r));
        assert_eq!(t.find_equal(&row("a", "m1", 2)), None);
        t.create_index("model").unwrap();
        assert_eq!(t.find_equal(&row("a", "m1", 1)), Some(r));
    }

    #[test]
    fn catalog_case_insensitive_and_duplicates() {
        let mut c = Catalog::new();
        c.create_table(car_table()).unwrap();
        assert!(c.get("car").is_some());
        assert!(matches!(
            c.create_table(car_table()),
            Err(DbError::TableExists(_))
        ));
        c.drop_table("CAR").unwrap();
        assert!(c.get("Car").is_none());
        assert!(c.drop_table("Car").is_err());
    }

    #[test]
    fn insert_validates_schema() {
        let mut t = car_table();
        assert!(t.insert(vec![Value::Int(1), Value::Int(2), Value::Int(3)]).is_err());
        assert!(t.insert(vec!["a".into()]).is_err());
    }
}
