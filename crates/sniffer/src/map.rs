//! The QI/URL map (§2.4): the sniffer's output, the invalidator's input.
//!
//! Each row associates one *bound* query instance with one page key. Rows
//! are deduplicated — re-requesting a cached page must not grow the map.
//!
//! A row holds its instance in **one form** ([`RowInstance`]). The mapper has
//! every instance *typed* before it has it as text — the query type and its
//! parameter values ([`TypedInstance`]), which is also the form the
//! invalidator's registry files it under — so a mapped row is `Typed`: the
//! mapper's next sight of the same instance for the same page is recognised
//! by comparing typed forms ([`MapWriter::insert_typed`]), and the
//! registration scan reads it as it stands
//! ([`QiUrlMap::visit_for_registration`]). The parameter values are one
//! allocation, shared with the registry. The instance's canonical text is
//! what is shown, shipped and journaled ([`QiUrlEntry`]); it is written from
//! the typed form where it is wanted ([`QiUrlMap::all`],
//! [`QiUrlMap::entries_for_page`], [`Row::write_json`]) and kept nowhere. A
//! row that arrives as text — [`QiUrlMap::insert`], [`QiUrlMap::from_json`],
//! a journal replayed — is `Text` until a mapper or the registration scan
//! types it, and then drops the text.

use cacheportal_db::sql::ast::{Bound, Select};
use cacheportal_db::Value;
use cacheportal_web::{push_tight, InlineVec, PageKey};
use parking_lot::{Mutex, MutexGuard};
use serde::Serialize as _;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// One row of the QI/URL map as it is shown, shipped and journaled: its
/// query instance as text.
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
    /// The instance's canonical bound text: the type with its values
    /// written back in.
    pub fn sql(&self) -> impl fmt::Display + '_ {
        Bound(&*self.template, &self.params)
    }

    /// True when `other` is this instance spelled the same way — value for
    /// value the same literal, and one template: the same allocation (every
    /// instance a mapper makes of one logged statement) or, failing that,
    /// equal trees (another mapper's parse, the registry's copy) — so that
    /// the two render the same text. Never true of instances whose texts
    /// differ. `Value`'s own equality would not do: it takes `1` for `1.0`,
    /// and those are two texts.
    fn spelled_as(&self, other: &TypedInstance) -> bool {
        self.params.len() == other.params.len()
            && (self.params.iter().zip(other.params.iter()))
                .all(|(a, b)| std::mem::discriminant(a) == std::mem::discriminant(b) && a == b)
            && (Arc::ptr_eq(&self.template, &other.template) || self.template == other.template)
    }

    /// True when [`TypedInstance::sql`] is `text`. The rendering is checked
    /// against `text` piece by piece and stops at the first that differs;
    /// nothing is built.
    fn renders_as(&self, text: &str) -> bool {
        /// What is left of a text the pieces written so far were a prefix of.
        struct Rest<'a>(&'a str);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, piece: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(text);
        write!(rest, "{}", self.sql()).is_ok() && rest.0.is_empty()
    }
}

/// The query instance of a row, in the one form the row holds it.
#[derive(Debug, Clone, PartialEq)]
pub enum RowInstance {
    /// Typed: a row a mapper wrote, or a text row since typed.
    Typed(TypedInstance),
    /// Canonical bound SQL text: a row that came as text and that no mapper
    /// or registration scan has come across since.
    Text(Box<str>),
}

impl fmt::Display for RowInstance {
    /// The canonical bound SQL text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowInstance::Typed(typed) => typed.sql().fmt(f),
            RowInstance::Text(sql) => f.write_str(sql),
        }
    }
}

/// One row of the map, read in place.
pub struct Row {
    id: u64,
    page_key: PageKey,
    servlet: Arc<str>,
    instance: RowInstance,
}

impl Row {
    /// The page whose content depends on the row's query instance.
    pub fn page_key(&self) -> &PageKey {
        &self.page_key
    }

    /// The query instance.
    pub fn instance(&self) -> &RowInstance {
        &self.instance
    }

    /// The row with its instance rendered.
    pub fn entry(&self) -> QiUrlEntry {
        QiUrlEntry {
            id: self.id,
            sql: self.instance.to_string(),
            page_key: self.page_key.clone(),
            servlet: self.servlet.clone(),
        }
    }

    /// Append the JSON of [`Row::entry`] — what `QiUrlEntry`'s derived
    /// `Serialize` writes — to `out`, the instance's text streamed into it.
    pub fn write_json(&self, out: &mut String) {
        /// JSON string content, escaped as it is written.
        struct Escaped<'a>(&'a mut String);
        impl fmt::Write for Escaped<'_> {
            fn write_str(&mut self, piece: &str) -> fmt::Result {
                serde::json::write_escaped(self.0, piece);
                Ok(())
            }
        }
        out.push_str("{\"id\":");
        self.id.write_json(out);
        out.push_str(",\"sql\":\"");
        write!(Escaped(out), "{}", self.instance).expect("writing to a String");
        out.push_str("\",\"page_key\":");
        self.page_key.write_json(out);
        out.push_str(",\"servlet\":");
        self.servlet.write_json(out);
        out.push('}');
    }
}

/// What [`MapWriter::insert_typed`] made of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// The map holds the row, typed: nothing was rendered.
    Known,
    /// The map held the row as text, which the instance rendered to; the row
    /// is typed now, and the text dropped.
    KnownAsText,
    /// The row is new.
    New,
}

/// The map itself, with a read cursor for the invalidator's online
/// registration scan.
#[derive(Default)]
pub struct QiUrlMap {
    inner: Mutex<MapInner>,
}

#[derive(Default)]
struct MapInner {
    rows: Vec<Row>,
    /// Positions in `rows` of each page's rows: the dedup index (a row is a
    /// duplicate when its page already has one with the same instance),
    /// which holds no copy of any. The one or few rows of a page are held
    /// in place.
    by_page: HashMap<PageKey, InlineVec<u32, 3>>,
    next_id: u64,
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

    /// Append a row; its page has none with this instance.
    fn push(&mut self, instance: RowInstance, page: &PageKey, servlet: &Arc<str>) {
        let row = Row {
            id: self.next_id,
            page_key: self.index(page),
            servlet: servlet.clone(),
            instance,
        };
        self.next_id += 1;
        push_tight(&mut self.rows, row);
    }

    /// The position of `page`'s row whose instance `is` accepts.
    fn row_of(&self, page: &PageKey, is: impl Fn(&RowInstance) -> bool) -> Option<usize> {
        let rows = self.by_page.get(page)?;
        rows.iter()
            .map(|&r| r as usize)
            .find(|&r| is(&self.rows[r].instance))
    }
}

/// The map, locked for the rows of one mapper run: the nodes of a farm run
/// their mappers against one map, one after the other.
pub struct MapWriter<'a>(MutexGuard<'a, MapInner>);

impl MapWriter<'_> {
    /// Insert the row `(typed, page)` unless it is there. Typed forms are
    /// compared first; only against a row the page holds as text is `typed`
    /// rendered.
    pub fn insert_typed(
        &mut self,
        typed: &TypedInstance,
        page: &PageKey,
        servlet: &Arc<str>,
    ) -> Inserted {
        let map = &mut *self.0;
        let spelled = |row: &RowInstance| matches!(row, RowInstance::Typed(t) if t.spelled_as(typed));
        if map.row_of(page, spelled).is_some() {
            return Inserted::Known;
        }
        let as_text = |row: &RowInstance| matches!(row, RowInstance::Text(sql) if typed.renders_as(sql));
        match map.row_of(page, as_text) {
            Some(known) => {
                map.rows[known].instance = RowInstance::Typed(typed.clone());
                Inserted::KnownAsText
            }
            None => {
                map.push(RowInstance::Typed(typed.clone()), page, servlet);
                Inserted::New
            }
        }
    }
}

impl QiUrlMap {
    /// Create an empty map.
    pub fn new() -> Self {
        QiUrlMap::default()
    }

    /// Insert a (query instance, page) association given as text; returns
    /// true if new.
    pub fn insert(&self, sql: String, page_key: PageKey, servlet: Arc<str>) -> bool {
        let mut inner = self.inner.lock();
        let same = |row: &RowInstance| match row {
            RowInstance::Typed(typed) => typed.renders_as(&sql),
            RowInstance::Text(text) => **text == *sql,
        };
        let new = inner.row_of(&page_key, same).is_none();
        if new {
            inner.push(RowInstance::Text(sql.into()), &page_key, &servlet);
        }
        new
    }

    /// Lock the map to insert a mapper run's rows.
    pub fn writer(&self) -> MapWriter<'_> {
        MapWriter(self.inner.lock())
    }

    /// Show `visit` every row with id >= `cursor`, in id order and in
    /// place; returns the next cursor. The map is locked until the last
    /// visit returns: the journal encodes rows straight out of it, and
    /// copies none.
    pub fn visit_since(&self, cursor: u64, mut visit: impl FnMut(&Row)) -> u64 {
        self.visit_for_registration(cursor, |row| {
            visit(row);
            None
        })
    }

    /// The id the next new row will get: a cursor past every row there is.
    pub fn next_id(&self) -> u64 {
        self.inner.lock().next_id
    }

    /// The invalidator's "constantly listening to the QI/URL map" interface
    /// (§4.1.2): [`QiUrlMap::visit_since`] for a visitor that types what it
    /// reads. What `visit` returns for a [`RowInstance::Text`] row — the
    /// text, parsed and parameterized — the row holds from then on, in place
    /// of the text.
    pub fn visit_for_registration(
        &self,
        cursor: u64,
        mut visit: impl FnMut(&Row) -> Option<TypedInstance>,
    ) -> u64 {
        let mut inner = self.inner.lock();
        let start = inner.rows.partition_point(|row| row.id < cursor);
        for row in &mut inner.rows[start..] {
            if let (Some(typed), RowInstance::Text(_)) = (visit(row), &row.instance) {
                row.instance = RowInstance::Typed(typed);
            }
        }
        inner.next_id
    }

    /// Every entry (diagnostics, tests).
    pub fn all(&self) -> Vec<QiUrlEntry> {
        let inner = self.inner.lock();
        inner.rows.iter().map(Row::entry).collect()
    }

    /// All QI rows registered for `page` — the QI→URL half of an eject
    /// provenance chain ("which query instances does this URL depend on?").
    pub fn entries_for_page(&self, page: &PageKey) -> Vec<QiUrlEntry> {
        let inner = self.inner.lock();
        let rows = inner.by_page.get(page).map_or(&[][..], |rows| rows);
        rows.iter()
            .map(|&r| inner.rows[r as usize].entry())
            .collect()
    }

    /// Remove all rows for the given pages (e.g. pages evicted from every
    /// cache no longer need invalidation tracking).
    pub fn remove_pages(&self, pages: &HashSet<PageKey>) -> usize {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let before = inner.rows.len();
        inner.rows.retain(|row| !pages.contains(&row.page_key));
        // The rows behind the removed ones moved up: re-number the index in
        // place (its keys stay, nothing is copied).
        inner.by_page.retain(|page, rows| {
            rows.clear();
            !pages.contains(page)
        });
        for (at, row) in inner.rows.iter().enumerate() {
            let rows = inner.by_page.get_mut(&row.page_key);
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
        self.visit_since(0, |row| {
            json.push_str(separator);
            separator = ",";
            row.write_json(&mut json);
        });
        json.push(']');
        json
    }

    /// Rebuild a map from [`QiUrlMap::to_json`] output. Row ids, the dedup
    /// set, and the registration cursor position are all reconstructed; the
    /// rows are text.
    pub fn from_json(s: &str) -> Result<QiUrlMap, serde_json::Error> {
        let entries: Vec<QiUrlEntry> = serde_json::from_str(s)?;
        let mut inner = MapInner {
            next_id: entries.iter().map(|e| e.id + 1).max().unwrap_or(0),
            ..MapInner::default()
        };
        for entry in entries {
            let row = Row {
                id: entry.id,
                page_key: inner.index(&entry.page_key),
                servlet: entry.servlet,
                instance: RowInstance::Text(entry.sql.into()),
            };
            push_tight(&mut inner.rows, row);
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
            let next = m.visit_since(cursor, |row| seen.push(row.entry().sql));
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
        // A typed row's text is escaped as it is streamed.
        let hostile = typed(
            &Arc::new(parse_select("SELECT * FROM t WHERE a = $1").unwrap()),
            Value::Str("q\"\\\n\u{1}'é".into()),
        );
        let inserted = (m.writer()).insert_typed(&hostile, &PageKey::raw("p3"), &"s3".into());
        assert_eq!(inserted, Inserted::New);
        assert_eq!(m.to_json(), serde_json::to_string(&m.all()).unwrap());
        let shipped = QiUrlMap::from_json(&m.to_json()).unwrap();
        assert_eq!(shipped.all(), m.all());
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

    use cacheportal_db::sql::parser::parse_select;

    fn typed(template: &Arc<Select>, value: Value) -> TypedInstance {
        TypedInstance {
            template: template.clone(),
            params: [value].into(),
        }
    }

    #[test]
    fn a_row_holds_one_form_and_is_known_by_it() {
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
        let insert = |t: &TypedInstance, page: &PageKey| m.writer().insert_typed(t, page, &servlet);
        // Met as text once — and typed, the text dropped — known by its typed
        // form from then on.
        assert_eq!(insert(&one, &p1), Inserted::KnownAsText);
        assert_eq!(insert(&one, &p1), Inserted::Known);
        // The same instance for another page is another row.
        assert_eq!(insert(&one, &p2), Inserted::New);
        assert_eq!(insert(&one, &p2), Inserted::Known);
        // `1.0` equals `1` as a value, and is another text.
        let one_point_oh = typed(&template, Value::Float(1.0));
        assert_eq!(insert(&one_point_oh, &p1), Inserted::New);
        assert_eq!(insert(&one_point_oh, &p1), Inserted::Known);
        assert_eq!(insert(&one, &p1), Inserted::Known);
        // Another parse of the statement: the same rows, found by the
        // template's structure.
        assert_eq!(insert(&typed(&reparsed, Value::Int(1)), &p2), Inserted::Known);
        assert_eq!(m.len(), 3);
        m.visit_since(0, |row| assert!(matches!(row.instance(), RowInstance::Typed(_))));
        // A typed row is found as text, too, and shown as text.
        assert!(!m.insert("SELECT * FROM t WHERE a = 1.0".into(), p1.clone(), servlet.clone()));
        assert!(m.insert("SELECT * FROM t WHERE a = 1.00".into(), p1.clone(), servlet.clone()));
        let texts: Vec<String> = m.entries_for_page(&p1).into_iter().map(|e| e.sql).collect();
        assert_eq!(
            texts,
            [
                "SELECT * FROM t WHERE a = 1",
                "SELECT * FROM t WHERE a = 1.0",
                "SELECT * FROM t WHERE a = 1.00",
            ]
        );
        // A page's rows share the page's first key.
        let rows = m.entries_for_page(&PageKey::raw("p1"));
        assert!(rows
            .iter()
            .all(|e| std::ptr::eq(e.page_key.as_str(), p1.as_str())));
    }

    #[test]
    fn a_rendering_is_compared_without_being_built() {
        let template = Arc::new(parse_select("SELECT * FROM t WHERE a = $1 AND b = 'x'").unwrap());
        let instance = typed(&template, Value::Int(12));
        let text = instance.sql().to_string();
        assert_eq!(text, "SELECT * FROM t WHERE a = 12 AND b = 'x'");
        assert!(instance.renders_as(&text));
        // A prefix, an extension and a text that parts ways in the middle.
        assert!(!instance.renders_as(&text[..text.len() - 1]));
        assert!(!instance.renders_as(&format!("{text} ")));
        assert!(!instance.renders_as("SELECT * FROM t WHERE a = 13 AND b = 'x'"));
        assert!(!instance.renders_as(""));
    }

    #[test]
    fn the_registration_scan_types_a_text_row_in_place() {
        let template = Arc::new(parse_select("SELECT * FROM t WHERE a = $1").unwrap());
        let m = QiUrlMap::new();
        m.insert("SELECT * FROM t WHERE a = 1".into(), PageKey::raw("p1"), "s".into());
        (m.writer()).insert_typed(&typed(&template, Value::Int(2)), &PageKey::raw("p2"), &"s".into());
        let before = m.to_json();
        let mut seen = Vec::new();
        let next = m.visit_for_registration(0, |row| {
            seen.push(matches!(row.instance(), RowInstance::Text(_)));
            // What is returned for a typed row is ignored.
            Some(typed(&template, Value::Int(1)))
        });
        assert_eq!((seen, next), (vec![true, false], 2));
        m.visit_since(0, |row| assert!(matches!(row.instance(), RowInstance::Typed(_))));
        assert_eq!(m.to_json(), before, "the same rows, as text");
    }
}
