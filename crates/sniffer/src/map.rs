//! The QI/URL map (§2.4): the sniffer's output, the invalidator's input.
//!
//! Each row associates one *bound* query instance with one page key. Rows
//! are deduplicated — re-requesting a cached page must not grow the map.
//!
//! A row holds its instance *typed* — the query type and its parameter
//! values ([`TypedInstance`]), which is also the form the invalidator's
//! registry files it under: the mapper's next sight of the same instance for
//! the same page is recognised by comparing typed forms
//! ([`MapWriter::insert_typed`]), and the registration scan reads it as it
//! stands ([`QiUrlMap::visit_since`]). The parameter values are one
//! allocation, shared with the registry. The instance's canonical text is
//! what is shown and journaled ([`QiUrlEntry`]); it is written from the
//! typed form where it is wanted ([`QiUrlMap::all`],
//! [`QiUrlMap::entries_for_page`]) and kept nowhere; a journal writes it
//! from its type's text, rendered once ([`Row::write_json`]). A
//! row that arrives as text — a journal replayed ([`QiUrlMap::load`]), a test
//! ([`QiUrlMap::insert`]) — is typed on arrival, as the query log types a
//! statement logged with its values written in ([`type_text`]).
//!
//! The map is append-only: no row is ever removed, so a row a request finds
//! in it ([`QiUrlMap::holds`], under the read lock) stays there, and the
//! query log does not log that row again (DESIGN §3.4).

use crate::query_log::type_text;
use cacheportal_db::sql::ast::{write_select, Bound, ParamSink, Select};
use cacheportal_db::Value;
use cacheportal_web::{push_tight, InlineVec, PageKey};
use parking_lot::{RwLock, RwLockWriteGuard};
use serde::Serialize as _;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// One row of the QI/URL map as it is shown and journaled: its query
/// instance as text.
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

    /// True when the instance of `template` with the values `params` is
    /// this instance spelled the same way — value for value the same
    /// literal, and one template: the same allocation (every instance a
    /// query log makes of one logged statement) or, failing that, equal
    /// trees (another node's parse, the registry's copy) — so that the two
    /// render the same text. Never true of instances whose texts differ.
    /// `Value`'s own equality would not do: it takes `1` for `1.0`, and
    /// those are two texts.
    fn spells<'v>(
        &self,
        template: &Arc<Select>,
        params: impl ExactSizeIterator<Item = &'v Value>,
    ) -> bool {
        self.params.len() == params.len()
            && (self.params.iter().zip(params))
                .all(|(a, b)| std::mem::discriminant(a) == std::mem::discriminant(b) && a == b)
            && (Arc::ptr_eq(&self.template, template) || *self.template == **template)
    }
}

/// One row of the map, read in place.
pub struct Row {
    id: u64,
    page_key: PageKey,
    servlet: Arc<str>,
    instance: TypedInstance,
}

impl Row {
    /// The page whose content depends on the row's query instance.
    pub fn page_key(&self) -> &PageKey {
        &self.page_key
    }

    /// The query instance.
    pub fn instance(&self) -> &TypedInstance {
        &self.instance
    }

    /// The row with its instance rendered.
    pub fn entry(&self) -> QiUrlEntry {
        QiUrlEntry {
            id: self.id,
            sql: self.instance.sql().to_string(),
            page_key: self.page_key.clone(),
            servlet: self.servlet.clone(),
        }
    }

    /// Append the JSON of [`Row::entry`] — what `QiUrlEntry`'s derived
    /// `Serialize` writes — to `out`: the instance's text is its type's, as
    /// `texts` keeps it, with the values escaped in between.
    pub fn write_json(&self, out: &mut String, texts: &mut TemplateTexts) {
        out.push_str("{\"id\":");
        self.id.write_json(out);
        out.push_str(",\"sql\":\"");
        let TemplateText { text, params } = texts.get(&self.instance.template);
        let mut from = 0;
        for &(at, n) in params {
            out.push_str(&text[from..at]);
            from = at;
            // A number or NULL holds nothing JSON escapes.
            match n.checked_sub(1).and_then(|i| self.instance.params.get(i)) {
                Some(v @ Value::Str(_)) => v.write_sql_literal(&mut Escaped(out)),
                Some(v) => v.write_sql_literal(out),
                None => write!(out, "${n}"),
            }
            .expect("writing to a String");
        }
        out.push_str(&text[from..]);
        out.push_str("\",\"page_key\":");
        self.page_key.write_json(out);
        out.push_str(",\"servlet\":");
        self.servlet.write_json(out);
        out.push('}');
    }
}

/// JSON string content, escaped as it is written.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, piece: &str) -> fmt::Result {
        serde::json::write_escaped(self.0, piece);
        Ok(())
    }
}

/// Query types whose text [`TemplateTexts`] keeps at most. Like
/// `Database`'s statement cache: a site has a handful, and when more than
/// this arrive the memo starts over rather than track recency.
const TEMPLATE_TEXTS_CAPACITY: usize = 64;

/// The text of each query type whose rows [`Row::write_json`] writes,
/// rendered once: what a journal writer keeps from one row to the next. A
/// type is known by its template handle, which the memo holds, so a freed
/// template's address never names another.
#[derive(Default)]
pub struct TemplateTexts {
    texts: Vec<(Arc<Select>, TemplateText)>,
}

/// A query type's text as JSON string content, split where its instances'
/// values go. JSON escapes one character at a time, so the pieces escaped
/// apart read as the whole text escaped.
#[derive(Default)]
struct TemplateText {
    text: String,
    /// `(offset in text, n)` for each bound `$n` marker, in text order.
    params: Vec<(usize, usize)>,
}

impl fmt::Write for TemplateText {
    fn write_str(&mut self, piece: &str) -> fmt::Result {
        serde::json::write_escaped(&mut self.text, piece);
        Ok(())
    }
}

impl ParamSink for TemplateText {
    fn param(&mut self, n: usize) -> fmt::Result {
        self.params.push((self.text.len(), n));
        Ok(())
    }
}

impl TemplateTexts {
    fn get(&mut self, template: &Arc<Select>) -> &TemplateText {
        if let Some(at) = self.texts.iter().position(|(t, _)| Arc::ptr_eq(t, template)) {
            return &self.texts[at].1;
        }
        if self.texts.len() >= TEMPLATE_TEXTS_CAPACITY {
            self.texts.clear();
        }
        let mut text = TemplateText::default();
        write_select(template, &mut text).expect("writing to a String");
        self.texts.push((template.clone(), text));
        &self.texts[self.texts.len() - 1].1
    }
}

/// The map itself, with a read cursor for the invalidator's online
/// registration scan. Behind a readers-writer lock: a mapper run writes;
/// the registration scan, the journal and every request's query log read.
#[derive(Default)]
pub struct QiUrlMap {
    inner: RwLock<MapInner>,
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
    /// The templates of the rows that arrived as text, by the template's
    /// text: such rows of one type share one. Keyed by text, not by tree:
    /// `Value`'s equality takes a kept projection literal `1` for `1.0`.
    text_templates: HashMap<String, Arc<Select>>,
}

/// The map, locked for the rows of one mapper run: the nodes of a farm run
/// their mappers against one map, one after the other.
pub struct MapWriter<'a>(RwLockWriteGuard<'a, MapInner>);

impl MapWriter<'_> {
    /// Insert the row `(typed, page)` unless the page has a row spelled the
    /// same way; returns true if the row is new.
    pub fn insert_typed(
        &mut self,
        typed: &TypedInstance,
        page: &PageKey,
        servlet: &Arc<str>,
    ) -> bool {
        let MapInner { rows, by_page, next_id, .. } = &mut *self.0;
        let of_page = by_page.entry(page.clone());
        if let Entry::Occupied(known) = &of_page {
            let spelled =
                |&r: &u32| rows[r as usize].instance.spells(&typed.template, typed.params.iter());
            if known.get().iter().any(spelled) {
                return false;
            }
        }
        // File the row under `page`; its rows share the key the page first
        // came with, whichever request spelled it again since.
        let at = u32::try_from(rows.len()).expect("the map holds fewer than 2^32 rows");
        let page_key = of_page.key().clone();
        of_page.or_default().push(at);
        let row = Row {
            id: *next_id,
            page_key,
            servlet: servlet.clone(),
            instance: typed.clone(),
        };
        *next_id += 1;
        push_tight(rows, row);
        true
    }

    /// `sql` typed by [`type_text`], its template shared with the earlier
    /// rows of its type that arrived as text.
    fn type_text(&mut self, sql: &str) -> Option<TypedInstance> {
        let mut typed = type_text(sql)?;
        let template = self.0.text_templates.entry(typed.template.to_string());
        typed.template = template.or_insert(typed.template).clone();
        Some(typed)
    }
}

impl QiUrlMap {
    /// Create an empty map.
    pub fn new() -> Self {
        QiUrlMap::default()
    }

    /// Insert a (query instance, page) association given as text, typed by
    /// [`type_text`] — the rows of one type that arrive as text share one
    /// template; `None` when the text does not type, else whether the row is
    /// new.
    pub fn insert(&self, sql: &str, page_key: PageKey, servlet: Arc<str>) -> Option<bool> {
        let mut rows = self.writer();
        let typed = rows.type_text(sql)?;
        Some(rows.insert_typed(&typed, &page_key, &servlet))
    }

    /// [`QiUrlMap::insert`] for each row of a journal, in replay order. A row
    /// whose text does not type is left out; returns the pages of those.
    pub fn load(&self, entries: &[QiUrlEntry]) -> Vec<PageKey> {
        let mut rows = self.writer();
        let mut untyped = Vec::new();
        for e in entries {
            let Some(typed) = rows.type_text(&e.sql) else {
                untyped.push(e.page_key.clone());
                continue;
            };
            rows.insert_typed(&typed, &e.page_key, &e.servlet);
        }
        untyped
    }

    /// Lock the map to insert a mapper run's rows.
    pub fn writer(&self) -> MapWriter<'_> {
        MapWriter(self.inner.write())
    }

    /// True when `page` has a row of the instance of `template` with the
    /// values `params` — what [`MapWriter::insert_typed`] would find a
    /// duplicate — under the read lock, with nothing copied. Rows are never
    /// removed, so a row this finds stays.
    pub fn holds<'v>(
        &self,
        page: &PageKey,
        template: &Arc<Select>,
        params: impl ExactSizeIterator<Item = &'v Value> + Clone,
    ) -> bool {
        let inner = self.inner.read();
        inner.by_page.get(page).is_some_and(|rows| {
            (rows.iter()).any(|&r| inner.rows[r as usize].instance.spells(template, params.clone()))
        })
    }

    /// Show `visit` every row with id >= `cursor`, in id order and in
    /// place; returns the next cursor. This is the invalidator's "constantly
    /// listening to the QI/URL map" interface (§4.1.2). The map is locked
    /// until the last visit returns: the journal encodes rows straight out of
    /// it, and copies none.
    pub fn visit_since(&self, cursor: u64, mut visit: impl FnMut(&Row)) -> u64 {
        let inner = self.inner.read();
        let start = inner.rows.partition_point(|row| row.id < cursor);
        inner.rows[start..].iter().for_each(&mut visit);
        inner.next_id
    }

    /// The id the next new row will get: a cursor past every row there is.
    pub fn next_id(&self) -> u64 {
        self.inner.read().next_id
    }

    /// Every entry (diagnostics, tests).
    pub fn all(&self) -> Vec<QiUrlEntry> {
        let inner = self.inner.read();
        inner.rows.iter().map(Row::entry).collect()
    }

    /// All QI rows registered for `page` — the QI→URL half of an eject
    /// provenance chain ("which query instances does this URL depend on?").
    pub fn entries_for_page(&self, page: &PageKey) -> Vec<QiUrlEntry> {
        let inner = self.inner.read();
        let rows = inner.by_page.get(page).map_or(&[][..], |rows| rows);
        rows.iter()
            .map(|&r| inner.rows[r as usize].entry())
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// True when the map has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::sql::parser::parse_select;

    const Q1: &str = "SELECT * FROM t WHERE a = 1";
    const Q2: &str = "SELECT * FROM t WHERE a = 2";

    fn typed(template: &Arc<Select>, value: Value) -> TypedInstance {
        TypedInstance {
            template: template.clone(),
            params: [value].into(),
        }
    }

    #[test]
    fn dedup_on_instance_page_pair() {
        let m = QiUrlMap::new();
        assert_eq!(m.insert(Q1, PageKey::raw("p1"), "s".into()), Some(true));
        assert_eq!(m.insert(Q1, PageKey::raw("p1"), "s".into()), Some(false));
        // The same instance spelled another way is the same row.
        let respelled = "select * from t where a=1";
        assert_eq!(m.insert(respelled, PageKey::raw("p1"), "s".into()), Some(false));
        assert_eq!(m.insert(Q1, PageKey::raw("p2"), "s".into()), Some(true));
        assert_eq!(m.insert(Q2, PageKey::raw("p1"), "s".into()), Some(true));
        assert_eq!(m.len(), 3);
        // Text outside the dialect does not type, and leaves no row.
        assert_eq!(m.insert("Q1", PageKey::raw("p1"), "s".into()), None);
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
        m.insert(Q1, PageKey::raw("p1"), "s".into());
        let (batch1, cur) = since(0);
        assert_eq!(batch1, [Q1]);
        m.insert(Q2, PageKey::raw("p2"), "s".into());
        let (batch2, cur2) = since(cur);
        assert_eq!(batch2, [Q2]);
        assert_eq!(cur2, m.next_id());
        let (batch3, _) = since(cur2);
        assert!(batch3.is_empty());
    }

    #[test]
    fn a_row_is_written_as_its_entry_serialized() {
        let m = QiUrlMap::new();
        m.insert("SELECT 'q\"' FROM t", PageKey::raw("p1?g:a=\\"), "s1".into());
        m.insert(Q2, PageKey::raw("p2"), "s2".into());
        // A typed row's text is escaped as it is streamed.
        let hostile = typed(
            &Arc::new(parse_select("SELECT * FROM t WHERE a = $1").unwrap()),
            Value::Str("q\"\\\n\u{1}'é".into()),
        );
        assert!((m.writer()).insert_typed(&hostile, &PageKey::raw("p3"), &"s3".into()));
        let (mut json, mut texts) = (Vec::new(), TemplateTexts::default());
        m.visit_since(0, |row| {
            let mut text = String::new();
            row.write_json(&mut text, &mut texts);
            json.push(text);
        });
        let want: Vec<String> = m.all().iter().map(|e| serde_json::to_string(e).unwrap()).collect();
        assert_eq!(json, want);
    }

    #[test]
    fn rows_written_from_their_types_text_are_their_entries_serialized() {
        // String literals that hold a marker's spelling, quotes, a
        // backslash, a newline and a tab: text, not places for values.
        let a = Arc::new(
            parse_select("SELECT 'x$1''\"\\\n\t' AS s, a FROM t WHERE a = $1 AND b = $2").unwrap(),
        );
        let b = Arc::new(
            parse_select("SELECT * FROM u WHERE c = '$1' AND d < $1 ORDER BY d LIMIT 3").unwrap(),
        );
        let values = [
            Value::Int(-7),
            Value::Float(-2.5),
            Value::Float(3.0),
            Value::Null,
            Value::Str("o'\"\\\n\t$1\u{1}é".into()),
        ];
        let m = QiUrlMap::new();
        let servlet: Arc<str> = "s".into();
        for (i, v) in values.iter().enumerate() {
            let page = PageKey::raw(format!("p{i}"));
            let rows = [
                TypedInstance { template: a.clone(), params: [v.clone(), Value::Int(i as i64)].into() },
                typed(&b, v.clone()),
            ];
            for row in &rows {
                assert!(m.writer().insert_typed(row, &page, &servlet));
            }
        }
        // A row with a value short: its marker is written as it stands.
        assert!(m.writer().insert_typed(&typed(&a, Value::Int(1)), &PageKey::raw("short"), &servlet));
        // The two types share one memo, each rendered once.
        let mut texts = TemplateTexts::default();
        let mut json = Vec::new();
        m.visit_since(0, |row| {
            let mut text = String::new();
            row.write_json(&mut text, &mut texts);
            json.push(text);
        });
        assert_eq!(texts.texts.len(), 2);
        let want: Vec<String> = m.all().iter().map(|e| serde_json::to_string(e).unwrap()).collect();
        assert_eq!(json, want);
        assert!(want[0].contains(r#"'x$1''\"\\\n\t'"#), "{}", want[0]);
    }

    #[test]
    fn a_full_memo_starts_over_and_writes_the_same_text() {
        let m = QiUrlMap::new();
        let servlet: Arc<str> = "s".into();
        let types = TEMPLATE_TEXTS_CAPACITY + 6;
        for i in 0..2 * types {
            let template = parse_select(&format!("SELECT * FROM t{} WHERE a = $1", i % types));
            let row = typed(&Arc::new(template.unwrap()), Value::Int(i as i64));
            assert!(m.writer().insert_typed(&row, &PageKey::raw(format!("p{i}")), &servlet));
        }
        let mut texts = TemplateTexts::default();
        let mut json = Vec::new();
        m.visit_since(0, |row| {
            let mut text = String::new();
            row.write_json(&mut text, &mut texts);
            json.push(text);
        });
        assert!(texts.texts.len() <= TEMPLATE_TEXTS_CAPACITY);
        let want: Vec<String> = m.all().iter().map(|e| serde_json::to_string(e).unwrap()).collect();
        assert_eq!(json, want);
    }

    #[test]
    fn a_row_is_known_by_its_typed_form() {
        let template = Arc::new(parse_select("SELECT * FROM t WHERE a = $1").unwrap());
        let reparsed = Arc::new((*template).clone());
        let servlet: Arc<str> = "s".into();
        let (p1, p2) = (PageKey::raw("p1"), PageKey::raw("p2"));
        let m = QiUrlMap::new();
        // A row that came as text is typed: the mapper knows it.
        assert_eq!(m.insert(Q1, p1.clone(), servlet.clone()), Some(true));
        let one = typed(&template, Value::Int(1));
        let insert = |t: &TypedInstance, page: &PageKey| m.writer().insert_typed(t, page, &servlet);
        assert!(!insert(&one, &p1));
        // The same instance for another page is another row.
        assert!(insert(&one, &p2));
        assert!(!insert(&one, &p2));
        // `1.0` equals `1` as a value, and is another text.
        let one_point_oh = typed(&template, Value::Float(1.0));
        assert!(insert(&one_point_oh, &p1));
        assert!(!insert(&one_point_oh, &p1));
        assert!(!insert(&one, &p1));
        // Another parse of the statement: the same rows, found by the
        // template's structure.
        assert!(!insert(&typed(&reparsed, Value::Int(1)), &p2));
        assert_eq!(m.len(), 3);
        for text in ["SELECT * FROM t WHERE a = 1.0", "SELECT * FROM t WHERE a = 1.00"] {
            assert_eq!(m.insert(text, p1.clone(), servlet.clone()), Some(false));
        }
        let texts: Vec<String> = m.entries_for_page(&p1).into_iter().map(|e| e.sql).collect();
        assert_eq!(texts, [Q1, "SELECT * FROM t WHERE a = 1.0"]);
        // A page's rows share the page's first key.
        let rows = m.entries_for_page(&PageKey::raw("p1"));
        assert!(rows
            .iter()
            .all(|e| std::ptr::eq(e.page_key.as_str(), p1.as_str())));
    }

    #[test]
    fn a_load_types_its_rows_and_returns_the_pages_of_those_that_do_not() {
        let entry = |id, sql: &str, page: &str| QiUrlEntry {
            id,
            sql: sql.into(),
            page_key: PageKey::raw(page),
            servlet: "s".into(),
        };
        let journal = [
            entry(0, Q1, "p1"),
            entry(1, "SELECT 1.0 FROM t WHERE a = 2", "p1"),
            entry(2, "SELECT * FROM t WHERE", "p2"),
            entry(3, Q2, "p3"),
            entry(4, "SELECT 1 FROM t WHERE a = 3", "p3"),
            entry(5, Q1, "p1"),
        ];
        let m = QiUrlMap::new();
        assert_eq!(m.load(&journal), [PageKey::raw("p2")]);
        let texts: Vec<String> = m.all().into_iter().map(|e| e.sql).collect();
        assert_eq!(texts, [Q1, "SELECT 1.0 FROM t WHERE a = 2", Q2, "SELECT 1 FROM t WHERE a = 3"]);
        // A row inserted as text later shares its type's template, too.
        m.insert("SELECT * FROM t WHERE a = 9", PageKey::raw("p4"), "s".into());
        let mut templates = Vec::new();
        m.visit_since(0, |row| templates.push(row.instance().template.clone()));
        assert!(Arc::ptr_eq(&templates[0], &templates[2]));
        assert!(Arc::ptr_eq(&templates[0], &templates[4]));
        assert!(!Arc::ptr_eq(&templates[1], &templates[3]), "two texts, two types");
    }
}
