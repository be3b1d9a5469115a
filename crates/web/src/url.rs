//! Page identity: the paper's "URL" (§2.3.1).
//!
//! A [`PageKey`] is the canonical cache identity of a dynamically generated
//! page: host + path + the *key* parameters (GET/POST/cookie) declared by the
//! servlet spec, with parameters sorted so that permutations of the query
//! string map to the same cached page.
//!
//! The key is spelled `host path ? kind:name=value & ...` with the bytes
//! that would be read as one of those separators percent-escaped in each
//! part, so two requests share a key only when they agree on host, path
//! and key parameters, and [`PageKey::request`] reads them back. A key with
//! nothing to escape, and a path that starts with `/`, is the bare join.

use crate::http::{HttpRequest, Method};
use crate::inline::InlineVec;
use crate::servlet::ServletSpec;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

// The admin server's decoder, compiled in from its one source: this crate
// does not depend on the observability crate.
#[path = "../../obs/src/percent.rs"]
mod percent;

/// Canonical page identifier used as the cache key: a handle on the key's
/// one copy of its text. Everything that remembers a page — caches, logs,
/// the QI/URL map, the registry, the bus — holds a clone, which is a
/// reference-count bump; it compares, orders, hashes and serializes as the
/// text.
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct PageKey(Arc<str>);

/// One `kind:name=value` part of a key.
type Part<'a> = (&'static str, &'a str, &'a str);

/// What each piece of a key escapes: `%` itself, and the separators that
/// end it. The host ends at the path's `/` (a routed path starts with one)
/// or at the `?`; the path at the `?`; a name at `=` and a value at `&`.
/// Each set is a mask over the byte values below 64, where all of them
/// lie, so the test every byte of a key takes is a shift.
const IN_HOST: u64 = mask(b"%/?");
const IN_PATH: u64 = mask(b"%?");
const IN_PART: u64 = mask(b"%&=?");

/// What a path that does not start with `/` (an empty one too) is spelled
/// after: the `/` ends the host, and no other path's spelling starts with
/// an escaped `/`, since a path escapes only `%` and `?`.
const UNROOTED: &str = "/%2F";

/// The set of `bytes`, each below 64.
const fn mask(bytes: &[u8]) -> u64 {
    let (mut mask, mut i) = (0, 0);
    while i < bytes.len() {
        mask |= 1 << bytes[i];
        i += 1;
    }
    mask
}

/// Whether `set` escapes `b`.
fn escapes(set: u64, b: u8) -> bool {
    b < 64 && set >> b & 1 == 1
}

/// `b` spelled `%XX`.
fn escaped_byte(b: u8) -> [u8; 3] {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    [b'%', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]
}

/// `text` written onto `key` with each byte in `escaped` spelled `%XX`, a
/// run of unescaped bytes at a time.
fn push_escaped(key: &mut String, mut text: &str, escaped: u64) {
    while let Some(at) = text.bytes().position(|b| escapes(escaped, b)) {
        key.push_str(&text[..at]);
        key.extend(escaped_byte(text.as_bytes()[at]).map(char::from));
        text = &text[at + 1..];
    }
    key.push_str(text);
}

thread_local! {
    /// Where `for_request` spells a key before copying it, exact-size, into
    /// its allocation.
    static KEY_TEXT: RefCell<String> = const { RefCell::new(String::new()) };
}

impl PageKey {
    /// Build the canonical key for `req` under `spec`'s key-parameter lists.
    ///
    /// Parameters not named in the spec are ignored (the paper: "some
    /// parameters may need to be used as keys/indexes in the cache, whereas
    /// some other may not").
    pub fn for_request(req: &HttpRequest, spec: &ServletSpec) -> PageKey {
        fn collect<'a>(
            parts: &mut InlineVec<Part<'a>, 8>,
            kind: &'static str,
            names: &'a [String],
            from: &'a [(String, String)],
        ) {
            for name in names {
                if let Some((_, v)) = from.iter().find(|(k, _)| k == name) {
                    parts.push((kind, name, v));
                }
            }
        }
        let mut parts = InlineVec::new();
        collect(&mut parts, "g", &spec.key_get_params, &req.get);
        collect(&mut parts, "p", &spec.key_post_params, &req.post);
        collect(&mut parts, "c", &spec.key_cookie_params, &req.cookies);
        // In the order of the parts' texts, whatever bytes names and values
        // hold.
        fn text<'a>(&(kind, name, value): &Part<'a>) -> impl Iterator<Item = u8> + 'a {
            let (name, value) = (name.bytes(), value.bytes());
            kind.bytes()
                .chain(*b":")
                .chain(name)
                .chain(*b"=")
                .chain(value)
        }
        parts.as_mut_slice().sort_by(|a, b| text(a).cmp(text(b)));
        KEY_TEXT.with_borrow_mut(|key| {
            key.clear();
            push_escaped(key, &req.host, IN_HOST);
            if !req.path.starts_with('/') {
                key.push_str(UNROOTED);
            }
            push_escaped(key, &req.path, IN_PATH);
            let mut separator = '?';
            for (kind, name, value) in parts.iter() {
                key.push(separator);
                separator = '&';
                key.push_str(kind);
                key.push(':');
                push_escaped(key, name, IN_PART);
                key.push('=');
                push_escaped(key, value, IN_PART);
            }
            if parts.is_empty() {
                key.push('?');
            }
            PageKey(Arc::from(key.as_str()))
        })
    }

    /// The request the key names: its host, path and key parameters, a
    /// POST when a POST parameter is among them. Under the spec that keyed
    /// it, a key [`PageKey::for_request`] spelled keys the request back to
    /// itself — the freshness oracle regenerates a page from its key.
    /// `None` for text that is no key: no `?`, or a part that is not
    /// `g:`, `p:` or `c:` with a `name=value` after it.
    pub fn request(&self) -> Option<HttpRequest> {
        use percent::percent_decode as decode;
        let (origin, query) = self.0.split_once('?')?;
        let (host, path) = origin.split_at(origin.find('/').unwrap_or(origin.len()));
        let path = path.strip_prefix(UNROOTED).unwrap_or(path);
        let mut req = HttpRequest::get(&decode(host), &decode(path), &[]);
        for part in query.split('&').filter(|_| !query.is_empty()) {
            let (kind, pair) = part.split_once(':')?;
            let (name, value) = pair.split_once('=')?;
            let list = match kind {
                "g" => &mut req.get,
                "p" => &mut req.post,
                "c" => &mut req.cookies,
                _ => return None,
            };
            list.push((decode(name), decode(value)));
        }
        if !req.post.is_empty() {
            req.method = Method::Post;
        }
        Some(req)
    }

    /// Raw key constructor (for tests and invalidation messages).
    pub fn raw(s: impl AsRef<str>) -> PageKey {
        PageKey(Arc::from(s.as_ref()))
    }

    /// The canonical key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The key's text, to clone for a holder that knows pages as text (the
    /// provenance log): still the one allocation.
    pub fn text(&self) -> &Arc<str> {
        &self.0
    }
}

/// A key hashes and compares as its text, so a table keyed by pages can be
/// asked about a `&str`.
impl Borrow<str> for PageKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servlet::ServletSpec;

    fn spec() -> ServletSpec {
        ServletSpec::new("carSearch")
            .with_key_get_params(&["maxprice", "maker"])
            .with_key_cookie_params(&["locale"])
    }

    #[test]
    fn key_param_order_is_canonical() {
        let r1 = HttpRequest::get("h", "/s", &[("maker", "Toyota"), ("maxprice", "20000")]);
        let r2 = HttpRequest::get("h", "/s", &[("maxprice", "20000"), ("maker", "Toyota")]);
        assert_eq!(
            PageKey::for_request(&r1, &spec()),
            PageKey::for_request(&r2, &spec())
        );
    }

    #[test]
    fn non_key_params_ignored() {
        let r1 = HttpRequest::get("h", "/s", &[("maker", "Toyota"), ("tracking", "xyz")]);
        let r2 = HttpRequest::get("h", "/s", &[("maker", "Toyota"), ("tracking", "abc")]);
        assert_eq!(
            PageKey::for_request(&r1, &spec()),
            PageKey::for_request(&r2, &spec())
        );
    }

    #[test]
    fn key_cookies_distinguish_pages() {
        let base = HttpRequest::get("h", "/s", &[("maker", "Toyota")]);
        let en = base.clone().with_cookie("locale", "en");
        let de = base.with_cookie("locale", "de");
        assert_ne!(
            PageKey::for_request(&en, &spec()),
            PageKey::for_request(&de, &spec())
        );
    }

    #[test]
    fn different_values_different_keys() {
        let r1 = HttpRequest::get("h", "/s", &[("maker", "Toyota")]);
        let r2 = HttpRequest::get("h", "/s", &[("maker", "Honda")]);
        assert_ne!(
            PageKey::for_request(&r1, &spec()),
            PageKey::for_request(&r2, &spec())
        );
    }

    #[test]
    fn host_and_path_in_key() {
        let r1 = HttpRequest::get("h1", "/s", &[]);
        let r2 = HttpRequest::get("h2", "/s", &[]);
        assert_ne!(
            PageKey::for_request(&r1, &spec()),
            PageKey::for_request(&r2, &spec())
        );
    }

    /// The key as it was built before it became a handle — a `String` per
    /// part, sorted, joined — with each piece escaped as it is joined.
    fn spelled_out(req: &HttpRequest, spec: &ServletSpec) -> String {
        let esc = |text: &str, set: &[u8]| -> String {
            text.chars()
                .map(|c| match c.is_ascii() && set.contains(&(c as u8)) {
                    true => format!("%{:02X}", c as u8),
                    false => c.to_string(),
                })
                .collect()
        };
        let mut parts: Vec<(String, String)> = Vec::new();
        let mut collect = |kind: &str, names: &[String], from: &[(String, String)]| {
            for name in names {
                if let Some((_, v)) = from.iter().find(|(k, _)| k == name) {
                    let escaped = format!("{kind}:{}={}", esc(name, b"%&=?"), esc(v, b"%&=?"));
                    parts.push((format!("{kind}:{name}={v}"), escaped));
                }
            }
        };
        collect("g", &spec.key_get_params, &req.get);
        collect("p", &spec.key_post_params, &req.post);
        collect("c", &spec.key_cookie_params, &req.cookies);
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        let parts: Vec<String> = parts.into_iter().map(|(_, escaped)| escaped).collect();
        let (host, path) = (esc(&req.host, b"%/?"), esc(&req.path, b"%?"));
        let unrooted = if req.path.starts_with('/') { "" } else { "/%2F" };
        format!("{host}{unrooted}{path}?{}", parts.join("&"))
    }

    #[test]
    fn key_text_is_what_sorting_and_joining_the_parts_gives() {
        // Names that are prefixes of each other up to '=' and '!', which sort
        // on either side of it; a repeated name; more parts than fit in place.
        let names = [
            "a", "a=", "a!", "ab", "z", "a", "m1", "m2", "m3", "m4", "m5",
        ];
        let spec = ServletSpec::new("s")
            .with_key_get_params(&names)
            .with_key_post_params(&["a", "b"])
            .with_key_cookie_params(&["z", "a"]);
        let pairs: Vec<(&str, &str)> = names.iter().map(|n| (*n, "v=1&x")).collect();
        let mut req = HttpRequest::get("shop", "/s", &pairs).with_cookie("a", "é");
        req.post = vec![("b".into(), "".into()), ("a".into(), "=".into())];
        assert_eq!(
            PageKey::for_request(&req, &spec).as_str(),
            spelled_out(&req, &spec)
        );
        for (req, spec) in [
            (HttpRequest::get("h", "/s", &[]), spec.clone()),
            (HttpRequest::get("h", "/s", &[("z", "1")]), spec.clone()),
            (req.clone(), ServletSpec::new("bare")),
            (
                HttpRequest::get("h/?%", "/s?%/", &[("a", "%?")]),
                spec.clone(),
            ),
        ] {
            assert_eq!(
                PageKey::for_request(&req, &spec).as_str(),
                spelled_out(&req, &spec)
            );
        }
    }

    /// A key with nothing to escape is the bare join, as before the escape.
    #[test]
    fn a_key_with_nothing_to_escape_is_spelled_as_joined() {
        let req = HttpRequest::get("shop", "/s", &[("maker", "Toyota"), ("maxprice", "2 0é")])
            .with_cookie("locale", "en:GB+1");
        assert_eq!(
            PageKey::for_request(&req, &spec()).as_str(),
            "shop/s?c:locale=en:GB+1&g:maker=Toyota&g:maxprice=2 0é"
        );
    }

    /// A value holding what a second part would spell does not key to the
    /// two-part request's page.
    #[test]
    fn a_value_that_spells_another_part_is_another_page() {
        let spec = ServletSpec::new("s").with_key_get_params(&["a", "b"]);
        let one = HttpRequest::get("h", "/s", &[("a", "x&g:b=y")]);
        let two = HttpRequest::get("h", "/s", &[("a", "x"), ("b", "y")]);
        let (k1, k2) = (
            PageKey::for_request(&one, &spec),
            PageKey::for_request(&two, &spec),
        );
        assert_eq!(k2.as_str(), "h/s?g:a=x&g:b=y");
        assert_eq!(k1.as_str(), "h/s?g:a=x%26g:b%3Dy");
        assert_eq!(k1.request(), Some(one));
        assert_eq!(k2.request(), Some(two));
    }

    #[test]
    fn text_that_is_no_key_names_no_request() {
        for text in ["h/s", "h/s?x:a=1", "h/s?g:a", "h/s?ga=1", "h/s?g:a=1&"] {
            assert_eq!(PageKey::raw(text).request(), None, "{text}");
        }
        let post = PageKey::raw("h/s?c:z=1&p:a=2").request().unwrap();
        assert_eq!(
            post,
            HttpRequest::post("h", "/s", &[("a", "2")]).with_cookie("z", "1")
        );
        assert_eq!(
            PageKey::raw("h?").request(),
            Some(HttpRequest::get("h", "", &[]))
        );
    }

    #[test]
    fn a_key_is_its_text_to_serde_ordering_and_hashing() {
        use serde::{Deserialize, Serialize, Value};
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let texts = ["shop/p?g:sku=10", "shop/p?g:sku=9", "", "shop/p?g:q=\"é\""];
        let mut keys: Vec<PageKey> = texts.iter().map(PageKey::raw).collect();
        for (key, text) in keys.iter().zip(texts) {
            let as_value = Value::String(text.to_string());
            assert_eq!(key.serialize_value(), as_value);
            let (mut json, mut want) = (String::new(), String::new());
            key.write_json(&mut json);
            text.write_json(&mut want);
            assert_eq!(json, want);
            assert_eq!(&PageKey::deserialize_value(&as_value).unwrap(), key);
            let hash = |v: &dyn Fn(&mut DefaultHasher)| {
                let mut h = DefaultHasher::new();
                v(&mut h);
                h.finish()
            };
            assert_eq!(hash(&|h| key.hash(h)), hash(&|h| text.hash(h)));
            assert_eq!(key.to_string(), text);
        }
        let mut sorted = texts;
        keys.sort();
        sorted.sort();
        assert_eq!(keys.iter().map(PageKey::as_str).collect::<Vec<_>>(), sorted);
        // A clone is the same allocation, and equal to a key spelled anew.
        let clone = keys[0].clone();
        assert!(std::ptr::eq(clone.as_str(), keys[0].as_str()));
        assert_eq!(clone, PageKey::raw(keys[0].as_str()));
    }

    fn hostile() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        let alphabet = vec!['%', '&', '=', '?', '/', ':', '+', 'g', 'a', '2', '6', 'é'];
        prop::collection::vec(prop::sample::select(alphabet), 0..6)
            .prop_map(|chars| chars.into_iter().collect())
    }

    /// Host, path (rooted at `/` as a routed one is, or not, or empty) and
    /// every kind of key parameter drawn from the separators and the
    /// escape's own digits.
    fn hostile_request() -> impl proptest::strategy::Strategy<Value = HttpRequest> {
        use proptest::prelude::*;
        let params = || prop::collection::vec((hostile(), hostile()), 0..3);
        (hostile(), any::<bool>(), hostile(), params(), params(), params()).prop_map(
            |(host, rooted, path, get, post, cookies)| {
                let path = if rooted { format!("/{path}") } else { path };
                let mut req = HttpRequest::get(&host, &path, &[]);
                (req.get, req.post, req.cookies) = (get, post, cookies);
                req
            },
        )
    }

    /// The key parameters' multiset, which is what a key may not lose.
    fn keyed(
        req: &HttpRequest,
        spec: &ServletSpec,
    ) -> (String, String, Vec<(char, String, String)>) {
        let mut parts = Vec::new();
        for (kind, names, from) in [
            ('g', &spec.key_get_params, &req.get),
            ('p', &spec.key_post_params, &req.post),
            ('c', &spec.key_cookie_params, &req.cookies),
        ] {
            for name in names {
                if let Some((_, v)) = from.iter().find(|(k, _)| k == name) {
                    parts.push((kind, name.clone(), v.clone()));
                }
            }
        }
        parts.sort();
        (req.host.clone(), req.path.clone(), parts)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn keys_are_injective_and_read_back(
            one in hostile_request(),
            two in hostile_request(),
            names in proptest::collection::vec(hostile(), 0..3),
        ) {
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let spec = ServletSpec::new("s")
                .with_key_get_params(&names)
                .with_key_post_params(&names)
                .with_key_cookie_params(&names);
            let (k1, k2) = (PageKey::for_request(&one, &spec), PageKey::for_request(&two, &spec));
            proptest::prop_assert_eq!(k1 == k2, keyed(&one, &spec) == keyed(&two, &spec));
            for (req, key) in [(&one, &k1), (&two, &k2)] {
                let back = key.request().expect("a key names its request");
                proptest::prop_assert_eq!(&PageKey::for_request(&back, &spec), key);
                proptest::prop_assert_eq!(keyed(&back, &spec), keyed(req, &spec));
            }
        }
    }
}
