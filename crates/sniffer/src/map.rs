//! The QI/URL map (§2.4): the sniffer's output, the invalidator's input.
//!
//! Each row associates one *bound* query instance (canonical SQL text) with
//! one page key. Rows are deduplicated — re-requesting a cached page must
//! not grow the map.
//!
//! A row is text, and text is all that is stored, serialized or journaled.
//! The mapper renders that text from an AST, and the invalidator's
//! registration scan would parse it straight back to find the query type and
//! its parameter values; so the mapper leaves those beside the row
//! ([`TypedInstance`], [`QiUrlMap::insert_mapped`]) until the registration
//! scan collects them ([`QiUrlMap::take_for_registration`]).

use cacheportal_db::sql::ast::Select;
use cacheportal_db::Value;
use cacheportal_web::PageKey;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One row of the QI/URL map.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QiUrlEntry {
    /// Unique row id.
    pub id: u64,
    /// Canonical bound SQL text of the query instance.
    pub sql: String,
    /// The page whose content depends on this query instance.
    pub page_key: PageKey,
    /// Servlet that generated the page.
    pub servlet: String,
}

/// A query instance the way the invalidator's registry files it: exactly
/// what `parameterize` makes of the instance's parsed text.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedInstance {
    /// The query type; instances of one logged statement share it.
    pub template: Arc<Select>,
    /// The values of the type's `$n` markers.
    pub params: Vec<Value>,
}

/// A row as the mapper produces it: a [`QiUrlEntry`] yet to be numbered,
/// with the typed form of its `sql`. Page and servlet are borrowed from the
/// request log: most rows repeat one the map already has, and are dropped
/// without having copied either.
#[derive(Debug, Clone)]
pub struct MappedRow<'a> {
    /// Canonical bound SQL text.
    pub sql: String,
    /// `sql`, parsed and parameterized.
    pub typed: TypedInstance,
    /// The page whose content depends on this query instance.
    pub page_key: &'a PageKey,
    /// Servlet that generated the page.
    pub servlet: &'a str,
}

/// The map itself, with a read cursor for the invalidator's online
/// registration scan.
#[derive(Default)]
pub struct QiUrlMap {
    inner: Mutex<MapInner>,
}

#[derive(Default)]
struct MapInner {
    entries: Vec<QiUrlEntry>,
    /// Positions in `entries` of each page's rows: the dedup index (a row is
    /// a duplicate when its page already has one with the same text), which
    /// holds no second copy of any row's text.
    by_page: HashMap<PageKey, Vec<u32>>,
    next_id: u64,
    /// Typed forms of the rows the mapper inserted and no registration scan
    /// has collected yet, by row id (ascending).
    typed: Vec<(u64, TypedInstance)>,
}

impl MapInner {
    /// Append a row unless it is already there; its id if it is new.
    fn insert(&mut self, sql: String, page_key: &PageKey, servlet: &str) -> Option<u64> {
        let at = u32::try_from(self.entries.len()).expect("the map holds fewer than 2^32 rows");
        match self.by_page.get_mut(page_key) {
            Some(rows) => {
                if rows.iter().any(|&r| self.entries[r as usize].sql == sql) {
                    return None;
                }
                rows.push(at);
            }
            None => {
                self.by_page.insert(page_key.clone(), vec![at]);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push(QiUrlEntry {
            id,
            sql,
            page_key: page_key.clone(),
            servlet: servlet.to_string(),
        });
        Some(id)
    }
}

impl QiUrlMap {
    /// Create an empty map.
    pub fn new() -> Self {
        QiUrlMap::default()
    }

    /// Insert a (query instance, page) association; returns true if new.
    pub fn insert(&self, sql: String, page_key: PageKey, servlet: String) -> bool {
        self.inner.lock().insert(sql, &page_key, &servlet).is_some()
    }

    /// Insert one mapper run's rows, in order, skipping those already there.
    /// The typed forms of the new rows stay until the next
    /// [`QiUrlMap::take_for_registration`], whichever mapper inserted them:
    /// the nodes of a farm run their mappers against one map before its
    /// one registration scan. The map is locked until `rows` ends.
    pub fn insert_mapped<'a>(&self, rows: impl IntoIterator<Item = MappedRow<'a>>) {
        let mut inner = self.inner.lock();
        for row in rows {
            if let Some(id) = inner.insert(row.sql, row.page_key, row.servlet) {
                inner.typed.push((id, row.typed));
            }
        }
    }

    /// Show `visit` every entry with id >= `cursor`, in id order and in
    /// place; returns the next cursor. The map is locked until the last
    /// visit returns: the journal encodes rows straight out of it, and
    /// copies none.
    pub fn visit_since(&self, cursor: u64, visit: impl FnMut(&QiUrlEntry)) -> u64 {
        let inner = self.inner.lock();
        let start = inner.entries.partition_point(|e| e.id < cursor);
        inner.entries[start..].iter().for_each(visit);
        inner.next_id
    }

    /// The id the next new row will get: a cursor past every row there is.
    pub fn next_id(&self) -> u64 {
        self.inner.lock().next_id
    }

    /// The invalidator's "constantly listening to the QI/URL map" interface
    /// (§4.1.2): the entries with id >= `cursor` plus the next cursor. Each
    /// entry comes with the typed form the mapper left for it, and every
    /// typed form leaves the map — what one scan has passed, it does not need
    /// again. A `None` means "parse `sql`": a row inserted as text, or one
    /// whose typed form an earlier scan took. A map that no invalidator scans
    /// (a web-side map shipped as JSON) keeps every typed form its mapper
    /// gave it.
    pub fn take_for_registration(
        &self,
        cursor: u64,
    ) -> (Vec<(QiUrlEntry, Option<TypedInstance>)>, u64) {
        let mut inner = self.inner.lock();
        let mut typed = std::mem::take(&mut inner.typed).into_iter().peekable();
        let start = inner.entries.partition_point(|e| e.id < cursor);
        let rows = inner.entries[start..]
            .iter()
            .map(|e| {
                // Rows below the cursor, and rows `remove_pages` took away.
                while typed.next_if(|(id, _)| *id < e.id).is_some() {}
                (e.clone(), typed.next_if(|(id, _)| *id == e.id).map(|(_, t)| t))
            })
            .collect();
        (rows, inner.next_id)
    }

    /// Every entry (diagnostics, tests).
    pub fn all(&self) -> Vec<QiUrlEntry> {
        self.inner.lock().entries.clone()
    }

    /// All QI rows registered for `page` — the QI→URL half of an eject
    /// provenance chain ("which query instances does this URL depend on?").
    pub fn entries_for_page(&self, page: &PageKey) -> Vec<QiUrlEntry> {
        let inner = self.inner.lock();
        let rows = inner.by_page.get(page).map_or(&[][..], Vec::as_slice);
        rows.iter()
            .map(|&r| inner.entries[r as usize].clone())
            .collect()
    }

    /// Remove all rows for the given pages (e.g. pages evicted from every
    /// cache no longer need invalidation tracking).
    pub fn remove_pages(&self, pages: &HashSet<PageKey>) -> usize {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let before = inner.entries.len();
        inner.entries.retain(|e| !pages.contains(&e.page_key));
        // The rows behind the removed ones moved up: re-number the index in
        // place (its keys stay, nothing is copied).
        inner.by_page.retain(|page, rows| {
            rows.clear();
            !pages.contains(page)
        });
        for (at, e) in inner.entries.iter().enumerate() {
            let rows = inner.by_page.get_mut(&e.page_key);
            rows.expect("a kept row's page is indexed").push(at as u32);
        }
        before - inner.entries.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when the map has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize every row to JSON — the transfer format when the sniffer
    /// and the invalidator run on different machines (the invalidator
    /// "fetches the logs from the appropriate servers at regular
    /// intervals", §2.2 / Figure 7 arrow (c)).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.inner.lock().entries).expect("entries serialize")
    }

    /// Rebuild a map from [`QiUrlMap::to_json`] output. Row ids, the dedup
    /// set, and the registration cursor position are all reconstructed.
    pub fn from_json(s: &str) -> Result<QiUrlMap, serde_json::Error> {
        let entries: Vec<QiUrlEntry> = serde_json::from_str(s)?;
        let by_page = index_by_page(&entries);
        let next_id = entries.iter().map(|e| e.id + 1).max().unwrap_or(0);
        Ok(QiUrlMap {
            inner: Mutex::new(MapInner {
                entries,
                by_page,
                next_id,
                typed: Vec::new(),
            }),
        })
    }
}

fn index_by_page(entries: &[QiUrlEntry]) -> HashMap<PageKey, Vec<u32>> {
    let mut by_page: HashMap<PageKey, Vec<u32>> = HashMap::new();
    for (at, e) in entries.iter().enumerate() {
        by_page
            .entry(e.page_key.clone())
            .or_default()
            .push(at as u32);
    }
    by_page
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_on_sql_page_pair() {
        let m = QiUrlMap::new();
        assert!(m.insert("Q1".into(), PageKey::raw("p1"), "s".into()));
        assert!(!m.insert("Q1".into(), PageKey::raw("p1"), "s".into()));
        assert!(m.insert("Q1".into(), PageKey::raw("p2"), "s".into()));
        assert!(m.insert("Q2".into(), PageKey::raw("p1"), "s".into()));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn cursor_scan_sees_only_new_entries() {
        let m = QiUrlMap::new();
        let since = |cursor| {
            let mut seen = Vec::new();
            let next = m.visit_since(cursor, |e| seen.push(e.sql.clone()));
            (seen, next)
        };
        m.insert("Q1".into(), PageKey::raw("p1"), "s".into());
        let (batch1, cur) = since(0);
        assert_eq!(batch1, ["Q1"]);
        m.insert("Q2".into(), PageKey::raw("p2"), "s".into());
        let (batch2, cur2) = since(cur);
        assert_eq!(batch2, ["Q2"]);
        assert_eq!(cur2, m.next_id());
        let (batch3, _) = since(cur2);
        assert!(batch3.is_empty());
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let m = QiUrlMap::new();
        m.insert("Q1".into(), PageKey::raw("p1"), "s1".into());
        m.insert("Q2".into(), PageKey::raw("p2"), "s2".into());
        let json = m.to_json();
        let rebuilt = QiUrlMap::from_json(&json).unwrap();
        assert_eq!(rebuilt.all(), m.all());
        // Dedup set survives the trip…
        assert!(!rebuilt.insert("Q1".into(), PageKey::raw("p1"), "s1".into()));
        // …and new ids continue where the original left off.
        assert!(rebuilt.insert("Q3".into(), PageKey::raw("p3"), "s3".into()));
        assert_eq!(rebuilt.all().last().unwrap().id, 2);
        assert!(QiUrlMap::from_json("not json").is_err());
    }

    #[test]
    fn remove_pages_purges_the_dedup_index_too() {
        let m = QiUrlMap::new();
        m.insert("Q1".into(), PageKey::raw("p1"), "s".into());
        m.insert("Q2".into(), PageKey::raw("p2"), "s".into());
        let mut gone = HashSet::new();
        gone.insert(PageKey::raw("p1"));
        assert_eq!(m.remove_pages(&gone), 1);
        // The row that moved up is still found under its page.
        assert!(!m.insert("Q2".into(), PageKey::raw("p2"), "s".into()));
        assert_eq!(m.entries_for_page(&PageKey::raw("p2")), m.all());
        // Re-inserting after removal must work (index rebuilt).
        assert!(m.insert("Q1".into(), PageKey::raw("p1"), "s".into()));
        assert_eq!(m.entries_for_page(&PageKey::raw("p1")).len(), 1);
    }
}
