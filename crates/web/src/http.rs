//! HTTP request/response model.
//!
//! The paper defines a page identifier (§2.3.1) as the `HTTP_HOST` plus the
//! GET query string, the cookies, and the POST body — of which only the
//! parameters declared as *keys* by the servlet participate in cache
//! identity. [`HttpRequest`] carries all three parameter sets.

use std::fmt;
use std::sync::Arc;

/// HTTP method; the model only distinguishes GET/POST semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// HTTP GET.
    Get,
    /// HTTP POST.
    Post,
}

/// An incoming request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// `HTTP_HOST`.
    pub host: String,
    /// Path component, e.g. `/servlet/carSearch`.
    pub path: String,
    /// GET parameters (`QUERY_STRING`), in arrival order.
    pub get: Vec<(String, String)>,
    /// POST parameters (message body), in arrival order.
    pub post: Vec<(String, String)>,
    /// Cookies (`HTTP_COOKIE`).
    pub cookies: Vec<(String, String)>,
}

impl HttpRequest {
    /// A GET request with query parameters.
    pub fn get(host: &str, path: &str, params: &[(&str, &str)]) -> Self {
        HttpRequest {
            method: Method::Get,
            host: host.to_string(),
            path: path.to_string(),
            get: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            post: Vec::new(),
            cookies: Vec::new(),
        }
    }

    /// A POST request with body parameters.
    pub fn post(host: &str, path: &str, params: &[(&str, &str)]) -> Self {
        HttpRequest {
            method: Method::Post,
            host: host.to_string(),
            path: path.to_string(),
            get: Vec::new(),
            post: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cookies: Vec::new(),
        }
    }

    /// Builder-style cookie attachment.
    pub fn with_cookie(mut self, name: &str, value: &str) -> Self {
        self.cookies.push((name.to_string(), value.to_string()));
        self
    }

    fn lookup<'a>(list: &'a [(String, String)], key: &str) -> Option<&'a str> {
        list.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// GET parameter by name.
    pub fn get_param(&self, key: &str) -> Option<&str> {
        Self::lookup(&self.get, key)
    }

    /// POST parameter by name.
    pub fn post_param(&self, key: &str) -> Option<&str> {
        Self::lookup(&self.post, key)
    }

    /// Cookie value by name.
    pub fn cookie(&self, key: &str) -> Option<&str> {
        Self::lookup(&self.cookies, key)
    }
}

/// The owner a `private, owner="…"` directive names. A literal
/// (`"cacheportal".into()`) is borrowed and a server's configured owner is
/// shared, so stamping either on a response allocates nothing.
#[derive(Debug, Clone)]
pub enum Owner {
    /// A literal.
    Literal(&'static str),
    /// Text made once and shared.
    Shared(Arc<str>),
}

impl std::ops::Deref for Owner {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Owner::Literal(text) => text,
            Owner::Shared(text) => text,
        }
    }
}

impl PartialEq for Owner {
    fn eq(&self, other: &Owner) -> bool {
        **self == **other
    }
}

impl Eq for Owner {}

impl From<&'static str> for Owner {
    fn from(text: &'static str) -> Owner {
        Owner::Literal(text)
    }
}

impl From<String> for Owner {
    fn from(text: String) -> Owner {
        Owner::Shared(text.into())
    }
}

/// Cacheability directive on a response.
///
/// `PrivateOwner` is the paper's rewritten form
/// (`Cache-Control: private, owner="cacheportal"`, §3.1): ordinary caches
/// treat it as non-cacheable, CachePortal-compliant caches may cache it.
/// `Eject` is the NetCache-style invalidation message (§4.2.4) carried by a
/// synthetic request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheControl {
    /// Cacheable by anyone (static pages).
    Public,
    /// `no-cache`: not cacheable at all.
    NoCache,
    /// `private, owner="<owner>"`: cacheable only by caches run by `owner`.
    PrivateOwner(Owner),
    /// `eject`: invalidate this URL in the receiving cache.
    Eject,
}

impl CacheControl {
    /// Header value serialization.
    pub fn header_value(&self) -> String {
        match self {
            CacheControl::Public => "public".to_string(),
            CacheControl::NoCache => "no-cache".to_string(),
            CacheControl::PrivateOwner(o) => format!("private, owner=\"{}\"", &**o),
            CacheControl::Eject => "eject".to_string(),
        }
    }

    /// Parse a header value (inverse of [`CacheControl::header_value`]).
    pub fn parse(s: &str) -> Option<CacheControl> {
        let t = s.trim();
        if t.eq_ignore_ascii_case("public") {
            return Some(CacheControl::Public);
        }
        if t.eq_ignore_ascii_case("no-cache") {
            return Some(CacheControl::NoCache);
        }
        if t.eq_ignore_ascii_case("eject") {
            return Some(CacheControl::Eject);
        }
        let lower = t.to_ascii_lowercase();
        if lower.starts_with("private") {
            if let Some(idx) = lower.find("owner=") {
                let rest = &t[idx + "owner=".len()..];
                let owner = rest.trim().trim_matches('"');
                return Some(CacheControl::PrivateOwner(owner.to_string().into()));
            }
        }
        None
    }

    /// May a cache owned by `owner` store a response with this directive?
    pub fn cacheable_by(&self, owner: &str) -> bool {
        match self {
            CacheControl::Public => true,
            CacheControl::NoCache | CacheControl::Eject => false,
            CacheControl::PrivateOwner(o) => &**o == owner,
        }
    }
}

impl fmt::Display for CacheControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.header_value())
    }
}

/// HTTP status subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200 OK.
    Ok,
    /// 404 Not Found.
    NotFound,
    /// 500 Internal Server Error.
    ServerError,
}

impl Status {
    /// Numeric status code.
    pub fn code(&self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::NotFound => 404,
            Status::ServerError => 500,
        }
    }
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Response status.
    pub status: Status,
    /// Cacheability directive.
    pub cache_control: CacheControl,
    /// Response body (HTML): one immutable allocation, shared by handle
    /// with every cache that admits the page.
    pub body: Arc<str>,
}

impl HttpResponse {
    /// A 200 response with the given body and directive. A `String` is
    /// copied once into the shared allocation; an `Arc<str>` is taken as is.
    pub fn ok(body: impl Into<Arc<str>>, cache_control: CacheControl) -> Self {
        HttpResponse {
            status: Status::Ok,
            cache_control,
            body: body.into(),
        }
    }

    /// A 404 response.
    pub fn not_found() -> Self {
        HttpResponse {
            status: Status::NotFound,
            cache_control: CacheControl::NoCache,
            body: "<html><body>404 Not Found</body></html>".into(),
        }
    }

    /// A 500 response carrying the error message.
    pub fn server_error(msg: &str) -> Self {
        HttpResponse {
            status: Status::ServerError,
            cache_control: CacheControl::NoCache,
            body: format!("<html><body>500 Internal Server Error: {msg}</body></html>").into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_params_and_cookies() {
        let r = HttpRequest::get("shop.example.com", "/catalog", &[("cat", "sedans"), ("page", "2")])
            .with_cookie("session", "abc");
        assert_eq!(r.get_param("cat"), Some("sedans"));
        assert_eq!(r.get_param("nope"), None);
        assert_eq!(r.cookie("session"), Some("abc"));
    }

    #[test]
    fn post_params() {
        let r = HttpRequest::post("h", "/p", &[("a", "1"), ("b", "2")]);
        assert_eq!(r.post_param("b"), Some("2"));
    }

    #[test]
    fn cache_control_round_trip() {
        for cc in [
            CacheControl::Public,
            CacheControl::NoCache,
            CacheControl::Eject,
            CacheControl::PrivateOwner("cacheportal".into()),
        ] {
            assert_eq!(CacheControl::parse(&cc.header_value()), Some(cc.clone()));
        }
        assert_eq!(CacheControl::parse("garbage"), None);
    }

    #[test]
    fn cacheable_by_owner_rules() {
        let cc = CacheControl::PrivateOwner("cacheportal".into());
        assert!(cc.cacheable_by("cacheportal"));
        assert!(!cc.cacheable_by("squid"));
        assert!(!CacheControl::NoCache.cacheable_by("cacheportal"));
        assert!(CacheControl::Public.cacheable_by("anyone"));
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(HttpResponse::not_found().status.code(), 404);
        assert_eq!(HttpResponse::server_error("x").status.code(), 500);
    }
}
