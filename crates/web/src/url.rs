//! Page identity: the paper's "URL" (§2.3.1).
//!
//! A [`PageKey`] is the canonical cache identity of a dynamically generated
//! page: host + path + the *key* parameters (GET/POST/cookie) declared by the
//! servlet spec, with parameters sorted so that permutations of the query
//! string map to the same cached page.

use crate::http::HttpRequest;
use crate::inline::InlineVec;
use crate::servlet::ServletSpec;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

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
            key.push_str(&req.host);
            key.push_str(&req.path);
            let mut separator = '?';
            for (kind, name, value) in parts.iter() {
                key.push(separator);
                separator = '&';
                key.push_str(kind);
                key.push(':');
                key.push_str(name);
                key.push('=');
                key.push_str(value);
            }
            if parts.is_empty() {
                key.push('?');
            }
            PageKey(Arc::from(key.as_str()))
        })
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

    /// The key as it was built before it became a handle: a `String` per
    /// part, sorted, joined.
    fn spelled_out(req: &HttpRequest, spec: &ServletSpec) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut collect = |kind: &str, names: &[String], from: &[(String, String)]| {
            for name in names {
                if let Some((_, v)) = from.iter().find(|(k, _)| k == name) {
                    parts.push(format!("{kind}:{name}={v}"));
                }
            }
        };
        collect("g", &spec.key_get_params, &req.get);
        collect("p", &spec.key_post_params, &req.post);
        collect("c", &spec.key_cookie_params, &req.cookies);
        parts.sort();
        format!("{}{}?{}", req.host, req.path, parts.join("&"))
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
        ] {
            assert_eq!(
                PageKey::for_request(&req, &spec).as_str(),
                spelled_out(&req, &spec)
            );
        }
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
}
