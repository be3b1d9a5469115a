//! The QI/URL map (§2.4): the sniffer's output, the invalidator's input.
//!
//! Each row associates one *bound* query instance (canonical SQL text) with
//! one page key. Rows are deduplicated — re-requesting a cached page must
//! not grow the map.
//!
//! A row is text, and text is all that is serialized or journaled. The
//! mapper, though, has every instance *typed* before it has it as text — the
//! query type and its parameter values ([`TypedInstance`]), which is also the
//! form the invalidator's registry files it under. So a mapped row keeps its
//! typed form beside its text: the mapper's next sight of the same instance
//! for the same page is recognised by it without rendering anything
//! ([`MapWriter::insert_typed`]), and the registration scan reads it instead
//! of parsing the text back ([`QiUrlMap::visit_for_registration`]). The
//! parameter values are one allocation, shared with the registry.

use cacheportal_db::sql::ast::Select;
use cacheportal_db::Value;
use cacheportal_web::{push_tight, InlineVec, PageKey};
use parking_lot::{Mutex, MutexGuard};
use serde::Serialize as _;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
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
    /// Servlet that generated the page (a clone of its spec's name).
    pub servlet: Arc<str>,
}

/// A query instance the way the invalidator's registry files it: exactly
/// what `parameterize` makes of the instance's parsed text.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedInstance {
    /// The query type; instances of one logged statement share it.
    pub template: Arc<Select>,
    /// The values of the type's `$n` markers.
    pub params: Arc<[Value]>,
}

impl TypedInstance {
    /// True when `other` is this instance spelled the same way — one
    /// template, and value for value the same literal — so that the two
    /// render the same text. Never true of instances whose texts differ;
    /// instances with one text can still differ here (two parses of a
    /// statement give two templates), and are then told apart as text.
    /// `Value`'s own equality would not do: it takes `1` for `1.0`, and
    /// those are two texts.
    fn spelled_as(&self, other: &TypedInstance) -> bool {
        Arc::ptr_eq(&self.template, &other.template)
            && self.params.len() == other.params.len()
            && (self.params.iter().zip(other.params.iter()))
                .all(|(a, b)| std::mem::discriminant(a) == std::mem::discriminant(b) && a == b)
    }
}

/// What [`MapWriter::insert_typed`] made of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// The map holds the row, and knew it by its typed form: nothing was
    /// rendered.
    Known,
    /// The map holds the row; to find that out, its text was rendered.
    KnownAsText,
    /// The row is new, and its text was rendered to store it.
    New,
}

/// The map itself, with a read cursor for the invalidator's online
/// registration scan.
#[derive(Default)]
pub struct QiUrlMap {
    inner: Mutex<MapInner>,
}

/// A row and, if the mapper wrote it or has seen it since, its typed form.
struct Row {
    entry: QiUrlEntry,
    typed: Option<TypedInstance>,
}

#[derive(Default)]
struct MapInner {
    rows: Vec<Row>,
    /// Positions in `rows` of each page's rows: the dedup index (a row is a
    /// duplicate when its page already has one with the same typed form or
    /// the same text), which holds no second copy of either. The one or few
    /// rows of a page are held in place.
    by_page: HashMap<PageKey, InlineVec<u32, 3>>,
    next_id: u64,
    /// Where a row's text is rendered, to be compared and — if the row is
    /// new — copied exact-size.
    text: String,
}

impl MapInner {
    /// File the row about to be pushed under `page`; returns the key its
    /// rows share — the first the page came with, whichever request spelled
    /// it again since.
    fn index(&mut self, page: &PageKey) -> PageKey {
        let at = u32::try_from(self.rows.len()).expect("the map holds fewer than 2^32 rows");
        let of_page = self.by_page.entry(page.clone());
        let shared = of_page.key().clone();
        of_page.or_default().push(at);
        shared
    }

    /// Append a row; its page has none with this text or typed form.
    fn push(
        &mut self,
        sql: String,
        typed: Option<TypedInstance>,
        page: &PageKey,
        servlet: &Arc<str>,
    ) {
        let entry = QiUrlEntry {
            id: self.next_id,
            sql,
            page_key: self.index(page),
            servlet: servlet.clone(),
        };
        self.next_id += 1;
        push_tight(&mut self.rows, Row { entry, typed });
    }

    /// The position of `page`'s row that `is` accepts.
    fn row_of(&self, page: &PageKey, is: impl Fn(&Row) -> bool) -> Option<usize> {
        let rows = self.by_page.get(page)?;
        rows.iter()
            .map(|&r| r as usize)
            .find(|&r| is(&self.rows[r]))
    }
}

/// The map, locked for the rows of one mapper run: the nodes of a farm run
/// their mappers against one map, one after the other.
pub struct MapWriter<'a>(MutexGuard<'a, MapInner>);

impl MapWriter<'_> {
    /// Insert the row `(text, page)` unless it is there, `typed` being the
    /// typed form of `text`. `text` is rendered only if no row of the page
    /// is known by `typed`.
    pub fn insert_typed(
        &mut self,
        typed: &TypedInstance,
        text: &dyn fmt::Display,
        page: &PageKey,
        servlet: &Arc<str>,
    ) -> Inserted {
        let map = &mut *self.0;
        let spelled = |row: &Row| row.typed.as_ref().is_some_and(|t| t.spelled_as(typed));
        if map.row_of(page, spelled).is_some() {
            return Inserted::Known;
        }
        let mut sql = std::mem::take(&mut map.text);
        sql.clear();
        write!(sql, "{text}").expect("writing to a String");
        let outcome = match map.row_of(page, |row| row.entry.sql == sql) {
            // A row that came as text, or under another parse of its
            // statement: from now on it is known by this typed form.
            Some(known) => {
                map.rows[known].typed = Some(typed.clone());
                Inserted::KnownAsText
            }
            None => {
                map.push(sql.as_str().into(), Some(typed.clone()), page, servlet);
                Inserted::New
            }
        };
        map.text = sql;
        outcome
    }
}

impl QiUrlMap {
    /// Create an empty map.
    pub fn new() -> Self {
        QiUrlMap::default()
    }

    /// Insert a (query instance, page) association; returns true if new.
    pub fn insert(&self, sql: String, page_key: PageKey, servlet: Arc<str>) -> bool {
        let mut inner = self.inner.lock();
        let new = inner
            .row_of(&page_key, |row| row.entry.sql == sql)
            .is_none();
        if new {
            inner.push(sql, None, &page_key, &servlet);
        }
        new
    }

    /// Lock the map to insert a mapper run's rows.
    pub fn writer(&self) -> MapWriter<'_> {
        MapWriter(self.inner.lock())
    }

    /// Show `visit` every entry with id >= `cursor`, in id order and in
    /// place; returns the next cursor. The map is locked until the last
    /// visit returns: the journal encodes rows straight out of it, and
    /// copies none.
    pub fn visit_since(&self, cursor: u64, mut visit: impl FnMut(&QiUrlEntry)) -> u64 {
        self.visit_for_registration(cursor, |entry, _| visit(entry))
    }

    /// The id the next new row will get: a cursor past every row there is.
    pub fn next_id(&self) -> u64 {
        self.inner.lock().next_id
    }

    /// The invalidator's "constantly listening to the QI/URL map" interface
    /// (§4.1.2): [`QiUrlMap::visit_since`], each entry with its typed form.
    /// A `None` means "parse `sql`": a row inserted as text that no mapper
    /// has come across since.
    pub fn visit_for_registration(
        &self,
        cursor: u64,
        mut visit: impl FnMut(&QiUrlEntry, Option<&TypedInstance>),
    ) -> u64 {
        let inner = self.inner.lock();
        let start = inner.rows.partition_point(|row| row.entry.id < cursor);
        for row in &inner.rows[start..] {
            visit(&row.entry, row.typed.as_ref());
        }
        inner.next_id
    }

    /// Every entry (diagnostics, tests).
    pub fn all(&self) -> Vec<QiUrlEntry> {
        let inner = self.inner.lock();
        inner.rows.iter().map(|row| row.entry.clone()).collect()
    }

    /// All QI rows registered for `page` — the QI→URL half of an eject
    /// provenance chain ("which query instances does this URL depend on?").
    pub fn entries_for_page(&self, page: &PageKey) -> Vec<QiUrlEntry> {
        let inner = self.inner.lock();
        let rows = inner.by_page.get(page).map_or(&[][..], |rows| rows);
        rows.iter()
            .map(|&r| inner.rows[r as usize].entry.clone())
            .collect()
    }

    /// Remove all rows for the given pages (e.g. pages evicted from every
    /// cache no longer need invalidation tracking).
    pub fn remove_pages(&self, pages: &HashSet<PageKey>) -> usize {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let before = inner.rows.len();
        inner
            .rows
            .retain(|row| !pages.contains(&row.entry.page_key));
        // The rows behind the removed ones moved up: re-number the index in
        // place (its keys stay, nothing is copied).
        inner.by_page.retain(|page, rows| {
            rows.clear();
            !pages.contains(page)
        });
        for (at, row) in inner.rows.iter().enumerate() {
            let rows = inner.by_page.get_mut(&row.entry.page_key);
            rows.expect("a kept row's page is indexed").push(at as u32);
        }
        before - inner.rows.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.lock().rows.len()
    }

    /// True when the map has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize every row to JSON — the transfer format when the sniffer
    /// and the invalidator run on different machines (the invalidator
    /// "fetches the logs from the appropriate servers at regular
    /// intervals", §2.2 / Figure 7 arrow (c)): the text of
    /// `serde_json::to_string(&map.all())`, written from the rows in place.
    pub fn to_json(&self) -> String {
        let mut json = String::from("[");
        let mut separator = "";
        self.visit_since(0, |entry| {
            json.push_str(separator);
            separator = ",";
            entry.write_json(&mut json);
        });
        json.push(']');
        json
    }

    /// Rebuild a map from [`QiUrlMap::to_json`] output. Row ids, the dedup
    /// set, and the registration cursor position are all reconstructed.
    pub fn from_json(s: &str) -> Result<QiUrlMap, serde_json::Error> {
        let entries: Vec<QiUrlEntry> = serde_json::from_str(s)?;
        let mut inner = MapInner {
            next_id: entries.iter().map(|e| e.id + 1).max().unwrap_or(0),
            ..MapInner::default()
        };
        for mut entry in entries {
            entry.page_key = inner.index(&entry.page_key);
            push_tight(&mut inner.rows, Row { entry, typed: None });
        }
        Ok(QiUrlMap {
            inner: Mutex::new(inner),
        })
    }
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

    #[test]
    fn json_text_is_the_entries_serialized() {
        let m = QiUrlMap::new();
        assert_eq!(m.to_json(), "[]");
        m.insert(
            "SELECT 'q\"' FROM t".into(),
            PageKey::raw("p1?g:a=\\"),
            "s1".into(),
        );
        m.insert("Q2".into(), PageKey::raw("p2"), "s2".into());
        assert_eq!(m.to_json(), serde_json::to_string(&m.all()).unwrap());
    }

    #[test]
    fn remove_pages_renumbers_lists_in_place_and_on_the_heap() {
        let m = QiUrlMap::new();
        let (few, many) = (PageKey::raw("few"), PageKey::raw("many"));
        m.insert("gone".into(), PageKey::raw("gone"), "s".into());
        for i in 0..2 {
            m.insert(format!("F{i}"), few.clone(), "s".into());
        }
        for i in 0..9 {
            m.insert(format!("M{i}"), many.clone(), "s".into());
            m.insert(format!("G{i}"), PageKey::raw("gone"), "s".into());
        }
        let gone: HashSet<PageKey> = [PageKey::raw("gone")].into();
        assert_eq!(m.remove_pages(&gone), 10);
        assert!(m.entries_for_page(&PageKey::raw("gone")).is_empty());
        let texts = |page| -> Vec<String> {
            m.entries_for_page(page)
                .into_iter()
                .map(|e| e.sql)
                .collect()
        };
        assert_eq!(texts(&few), ["F0", "F1"]);
        assert_eq!(
            texts(&many),
            (0..9).map(|i| format!("M{i}")).collect::<Vec<_>>()
        );
        // Every row is still found where the index says it is.
        for i in 0..9 {
            assert!(!m.insert(format!("M{i}"), many.clone(), "s".into()));
        }
        assert!(m.insert("M9".into(), many.clone(), "s".into()));
        assert_eq!(m.len(), 12);
    }

    fn typed(template: &Arc<Select>, value: Value) -> TypedInstance {
        TypedInstance {
            template: template.clone(),
            params: [value].into(),
        }
    }

    #[test]
    fn a_typed_row_is_known_without_its_text() {
        use cacheportal_db::sql::parser::parse_select;
        let template = Arc::new(parse_select("SELECT * FROM t WHERE a = $1").unwrap());
        let reparsed = Arc::new((*template).clone());
        let servlet: Arc<str> = "s".into();
        let (p1, p2) = (PageKey::raw("p1"), PageKey::raw("p2"));
        let m = QiUrlMap::new();
        // A row that came as text (a recovered map).
        assert!(m.insert(
            "SELECT * FROM t WHERE a = 1".into(),
            p1.clone(),
            servlet.clone()
        ));
        let one = typed(&template, Value::Int(1));
        let text_of = |v: &'static str| move || format!("SELECT * FROM t WHERE a = {v}");
        let insert = |t: &TypedInstance, v, page: &PageKey| {
            let rendered = std::cell::Cell::new(false);
            let text = Lazy(text_of(v), &rendered);
            let inserted = m.writer().insert_typed(t, &text, page, &servlet);
            assert_eq!(rendered.get(), inserted != Inserted::Known, "{inserted:?}");
            inserted
        };
        // Met as text once, by its typed form from then on.
        assert_eq!(insert(&one, "1", &p1), Inserted::KnownAsText);
        assert_eq!(insert(&one, "1", &p1), Inserted::Known);
        // The same instance for another page is another row.
        assert_eq!(insert(&one, "1", &p2), Inserted::New);
        assert_eq!(insert(&one, "1", &p2), Inserted::Known);
        // `1.0` equals `1` as a value, and is another text.
        let one_point_oh = typed(&template, Value::Float(1.0));
        assert_eq!(insert(&one_point_oh, "1.0", &p1), Inserted::New);
        assert_eq!(insert(&one_point_oh, "1.0", &p1), Inserted::Known);
        assert_eq!(insert(&one, "1", &p1), Inserted::Known);
        // Another parse of the statement: the same rows, found by their text.
        let again = typed(&reparsed, Value::Int(1));
        assert_eq!(insert(&again, "1", &p2), Inserted::KnownAsText);
        assert_eq!(insert(&again, "1", &p2), Inserted::Known);
        assert_eq!(m.len(), 3);
        // A stored text is its own size, whatever the buffer it was written in.
        let mut typed_rows = 0;
        m.visit_for_registration(0, |entry, typed| {
            assert_eq!(entry.sql.capacity(), entry.sql.len());
            typed_rows += typed.is_some() as usize;
        });
        assert_eq!(typed_rows, 3);
        // A page's rows share the page's first key.
        let rows = m.entries_for_page(&PageKey::raw("p1"));
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|e| std::ptr::eq(e.page_key.as_str(), p1.as_str())));
    }

    /// A text that says when it was written.
    struct Lazy<'a, F>(F, &'a std::cell::Cell<bool>);

    impl<F: Fn() -> String> fmt::Display for Lazy<'_, F> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.1.set(true);
            f.write_str(&(self.0)())
        }
    }
}
