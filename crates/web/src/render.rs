//! Deterministic HTML rendering of query results.
//!
//! Pages must render byte-identically for identical query results — the
//! freshness oracle compares cached bodies against regenerated ones.

use cacheportal_db::{QueryResult, Value};
use std::fmt::{self, Write};

/// Minimal HTML escaping for text content.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// The entity `c` is written as, if it is escaped.
fn entity(c: u8) -> Option<&'static str> {
    match c {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        _ => None,
    }
}

/// Append `s` to `out`, escaped: the runs between escaped characters are
/// copied whole.
fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, c) in s.bytes().enumerate() {
        if let Some(e) = entity(c) {
            out.push_str(&s[run..i]);
            out.push_str(e);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// The length of `s` escaped.
fn escaped_len(s: &str) -> usize {
    s.bytes().map(|c| entity(c).map_or(1, str::len)).sum()
}

/// A formatter target that escapes what it is given into a page buffer, so
/// a cell is written without being rendered to a string of its own first.
struct Escaping<'a>(&'a mut String);

impl Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// A formatter target that only counts the escaped length of what it is
/// given.
struct EscapedLen(usize);

impl Write for EscapedLen {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += escaped_len(s);
        Ok(())
    }
}

/// The escaped length of a cell's text.
fn cell_len(v: &Value) -> usize {
    let mut len = EscapedLen(0);
    write!(len, "{v}").expect("counting cannot fail");
    len.0
}

/// Render a query result as an HTML table, into one buffer of its exact
/// length.
pub fn html_table(result: &QueryResult) -> String {
    const TAGS: usize = "<table>\n<tr></tr>\n</table>".len();
    const HEADER: usize = "<th></th>".len();
    const ROW: usize = "<tr></tr>\n".len();
    const CELL: usize = "<td></td>".len();
    let len = TAGS
        + (result.columns.iter())
            .map(|c| HEADER + escaped_len(c))
            .sum::<usize>()
        + (result.rows.iter())
            .map(|row| ROW + row.iter().map(|v| CELL + cell_len(v)).sum::<usize>())
            .sum::<usize>();
    let mut out = String::with_capacity(len);
    out.push_str("<table>\n<tr>");
    for c in result.columns.iter() {
        out.push_str("<th>");
        push_escaped(&mut out, c);
        out.push_str("</th>");
    }
    out.push_str("</tr>\n");
    for row in &result.rows {
        out.push_str("<tr>");
        for v in row {
            out.push_str("<td>");
            write!(Escaping(&mut out), "{v}").expect("writing to a String cannot fail");
            out.push_str("</td>");
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>");
    out
}

/// Wrap body fragments into a full page.
pub fn html_page(title: &str, fragments: &[String]) -> String {
    const TAGS: usize =
        "<html><head><title></title></head>\n<body>\n<h1></h1>\n</body></html>".len();
    let len = TAGS
        + 2 * escaped_len(title)
        + fragments.iter().map(|f| f.len() + 1).sum::<usize>();
    let mut out = String::with_capacity(len);
    out.push_str("<html><head><title>");
    push_escaped(&mut out, title);
    out.push_str("</title></head>\n<body>\n<h1>");
    push_escaped(&mut out, title);
    out.push_str("</h1>\n");
    for f in fragments {
        out.push_str(f);
        out.push('\n');
    }
    out.push_str("</body></html>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::Value;

    #[test]
    fn escaping() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("é<"), "é&lt;");
        assert_eq!(escaped_len("a<b>&\"c\""), escape("a<b>&\"c\"").len());
    }

    #[test]
    fn table_is_built_in_one_buffer_of_its_exact_length() {
        let r = QueryResult {
            columns: ["a&b".into(), "n".into(), "x".into(), "f".into()].into(),
            rows: vec![
                vec![Value::Str("<i>".into()), Value::Int(-12), Value::Null, Value::Float(0.5)],
                vec![Value::Str("ok".into()), Value::Int(0), Value::Float(1e21), Value::Float(2.0)],
            ],
        };
        let html = html_table(&r);
        assert_eq!(html.len(), html.capacity());
        assert_eq!(
            html,
            "<table>\n<tr><th>a&amp;b</th><th>n</th><th>x</th><th>f</th></tr>\n\
             <tr><td>&lt;i&gt;</td><td>-12</td><td>NULL</td><td>0.5</td></tr>\n\
             <tr><td>ok</td><td>0</td><td>1000000000000000000000</td><td>2</td></tr>\n</table>"
        );
        let page = html_page("T&T", &[html]);
        assert_eq!(page.len(), page.capacity());
    }

    #[test]
    fn table_rendering_is_deterministic() {
        let r = QueryResult {
            columns: ["maker".into(), "price".into()].into(),
            rows: vec![vec![Value::Str("Toyota".into()), Value::Int(25000)]],
        };
        let a = html_table(&r);
        let b = html_table(&r);
        assert_eq!(a, b);
        assert!(a.contains("<th>maker</th>"));
        assert!(a.contains("<td>25000</td>"));
    }

    #[test]
    fn page_wraps_fragments() {
        let p = html_page("Cars & Trucks", &["<p>x</p>".to_string()]);
        assert!(p.contains("<title>Cars &amp; Trucks</title>"));
        assert!(p.contains("<p>x</p>"));
    }
}
