//! Servlets: the application logic that turns a request into a page by
//! issuing database queries.
//!
//! [`ServletSpec`] carries the metadata the sniffer keeps per servlet
//! (§3.1): key GET/POST/cookie parameters, temporal sensitivity to updates,
//! and cacheability. [`SqlServlet`] is a declarative servlet good enough for
//! every workload in the paper: a list of parameterized query templates whose
//! parameters are filled from the request, rendered as HTML tables.

use crate::connection::Connection;
use crate::http::HttpRequest;
use crate::render;
use cacheportal_db::schema::ColType;
use cacheportal_db::{DbError, DbResult, Value};
use std::sync::Arc;

/// Per-servlet metadata (paper §3.1's six fields, minus collected stats
/// which live in the invalidator's statistics store).
#[derive(Debug, Clone, PartialEq)]
pub struct ServletSpec {
    /// Unique servlet name (also used as its route). Request records and
    /// QI/URL map rows name their servlet with a clone of this.
    pub name: Arc<str>,
    /// GET parameters that participate in cache identity.
    pub key_get_params: Vec<String>,
    /// POST parameters that participate in cache identity.
    pub key_post_params: Vec<String>,
    /// Cookies that participate in cache identity.
    pub key_cookie_params: Vec<String>,
    /// How stale (ms) this servlet's pages may be; `None` = no bound.
    /// Pages more sensitive than the invalidator's sync interval are marked
    /// non-cacheable by the deployment.
    pub temporal_sensitivity_ms: Option<u64>,
    /// Whether the pages this servlet generates may be cached at all.
    pub cacheable: bool,
}

impl ServletSpec {
    /// A spec with the given name/route, no key parameters, cacheable.
    pub fn new(name: &str) -> Self {
        ServletSpec {
            name: name.into(),
            key_get_params: Vec::new(),
            key_post_params: Vec::new(),
            key_cookie_params: Vec::new(),
            temporal_sensitivity_ms: None,
            cacheable: true,
        }
    }

    /// Declare the GET parameters that form the cache key.
    pub fn with_key_get_params(mut self, names: &[&str]) -> Self {
        self.key_get_params = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Declare the POST parameters that form the cache key.
    pub fn with_key_post_params(mut self, names: &[&str]) -> Self {
        self.key_post_params = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Declare the cookies that form the cache key.
    pub fn with_key_cookie_params(mut self, names: &[&str]) -> Self {
        self.key_cookie_params = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Declare how stale (ms) pages may be.
    pub fn with_temporal_sensitivity_ms(mut self, ms: u64) -> Self {
        self.temporal_sensitivity_ms = Some(ms);
        self
    }

    /// Mark every page of this servlet non-cacheable.
    pub fn non_cacheable(mut self) -> Self {
        self.cacheable = false;
        self
    }
}

/// Application logic bound to a route.
pub trait Servlet: Send + Sync {
    /// The servlet’s metadata.
    fn spec(&self) -> &ServletSpec;

    /// Produce the page body. All database access must go through `conn`
    /// so that deployments can interpose the query logger.
    fn handle(&self, req: &HttpRequest, conn: &mut dyn Connection) -> DbResult<String>;
}

/// Where a SQL parameter's value comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamSource {
    /// GET parameter, converted to the given type.
    Get(String, ColType),
    /// POST parameter.
    Post(String, ColType),
    /// Cookie.
    Cookie(String, ColType),
    /// Fixed value.
    Const(Value),
    /// GET parameter spliced into a string template: every `{}` in the
    /// template is replaced by the raw parameter text and the result is a
    /// `Value::Str`. Built for LIKE patterns ("s{}%") where the query
    /// parameter is a fragment of the pattern, not the whole value.
    GetPattern(String, String),
}

impl ParamSource {
    fn resolve(&self, req: &HttpRequest) -> DbResult<Value> {
        let (raw, ty, name) = match self {
            ParamSource::Const(v) => return Ok(v.clone()),
            ParamSource::GetPattern(n, template) => {
                let raw = req.get_param(n).ok_or_else(|| {
                    DbError::Unsupported(format!("missing request parameter '{n}'"))
                })?;
                return Ok(Value::Str(template.replace("{}", raw)));
            }
            ParamSource::Get(n, t) => (req.get_param(n), *t, n),
            ParamSource::Post(n, t) => (req.post_param(n), *t, n),
            ParamSource::Cookie(n, t) => (req.cookie(n), *t, n),
        };
        let raw = raw.ok_or_else(|| {
            DbError::Unsupported(format!("missing request parameter '{name}'"))
        })?;
        convert(raw, ty)
            .ok_or_else(|| DbError::Unsupported(format!("parameter '{name}' is not a {ty}")))
    }
}

fn convert(raw: &str, ty: ColType) -> Option<Value> {
    match ty {
        ColType::Int => raw.parse::<i64>().ok().map(Value::Int),
        ColType::Float => raw.parse::<f64>().ok().map(Value::Float),
        ColType::Str => Some(Value::Str(raw.to_string())),
    }
}

/// One parameterized query a [`SqlServlet`] runs.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    /// SQL with `$1…$n` placeholders — the paper's query type (§2.3.2).
    /// The query logger's records of it share this one copy.
    pub sql: Arc<str>,
    /// One source per placeholder, in order.
    pub params: Vec<ParamSource>,
}

impl QueryTemplate {
    /// A template from parameterized SQL and its parameter sources.
    pub fn new(sql: &str, params: Vec<ParamSource>) -> Self {
        QueryTemplate {
            sql: sql.into(),
            params,
        }
    }
}

/// Declarative servlet: runs its templates and renders the results.
pub struct SqlServlet {
    spec: ServletSpec,
    title: String,
    queries: Vec<QueryTemplate>,
}

impl SqlServlet {
    /// A servlet rendering `queries` under `title`.
    pub fn new(spec: ServletSpec, title: &str, queries: Vec<QueryTemplate>) -> Self {
        SqlServlet {
            spec,
            title: title.to_string(),
            queries,
        }
    }
}

impl Servlet for SqlServlet {
    fn spec(&self) -> &ServletSpec {
        &self.spec
    }

    fn handle(&self, req: &HttpRequest, conn: &mut dyn Connection) -> DbResult<String> {
        let mut fragments = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            let params: Vec<Value> = q
                .params
                .iter()
                .map(|p| p.resolve(req))
                .collect::<DbResult<_>>()?;
            let result = conn.query_shared(&q.sql, &params)?;
            fragments.push(render::html_table(&result));
        }
        Ok(render::html_page(&self.title, &fragments))
    }
}

/// A servlet backed by a closure — for application logic that doesn't fit
/// the declarative [`SqlServlet`] mold (conditional queries, custom
/// rendering, write-then-read flows).
pub struct FnServlet<F> {
    spec: ServletSpec,
    handler: F,
}

impl<F> FnServlet<F>
where
    F: Fn(&HttpRequest, &mut dyn Connection) -> DbResult<String> + Send + Sync,
{
    /// A servlet delegating to `handler`.
    pub fn new(spec: ServletSpec, handler: F) -> Self {
        FnServlet { spec, handler }
    }
}

impl<F> Servlet for FnServlet<F>
where
    F: Fn(&HttpRequest, &mut dyn Connection) -> DbResult<String> + Send + Sync,
{
    fn spec(&self) -> &ServletSpec {
        &self.spec
    }

    fn handle(&self, req: &HttpRequest, conn: &mut dyn Connection) -> DbResult<String> {
        (self.handler)(req, conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::{shared, DbConnection};
    use cacheportal_db::Database;

    fn conn() -> DbConnection {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)")
            .unwrap();
        db.execute(
            "INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)",
        )
        .unwrap();
        DbConnection::new(shared(db))
    }

    fn search_servlet() -> SqlServlet {
        SqlServlet::new(
            ServletSpec::new("carSearch").with_key_get_params(&["maxprice"]),
            "Car search",
            vec![QueryTemplate::new(
                "SELECT maker, model, price FROM Car WHERE price <= $1 ORDER BY price",
                vec![ParamSource::Get("maxprice".into(), ColType::Int)],
            )],
        )
    }

    #[test]
    fn sql_servlet_renders_filtered_results() {
        let s = search_servlet();
        let mut c = conn();
        let req = HttpRequest::get("h", "/carSearch", &[("maxprice", "20000")]);
        let body = s.handle(&req, &mut c).unwrap();
        assert!(body.contains("Civic"));
        assert!(!body.contains("Avalon"));
    }

    #[test]
    fn missing_parameter_is_an_error() {
        let s = search_servlet();
        let mut c = conn();
        let req = HttpRequest::get("h", "/carSearch", &[]);
        assert!(s.handle(&req, &mut c).is_err());
    }

    #[test]
    fn bad_typed_parameter_is_an_error() {
        let s = search_servlet();
        let mut c = conn();
        let req = HttpRequest::get("h", "/carSearch", &[("maxprice", "cheap")]);
        assert!(s.handle(&req, &mut c).is_err());
    }

    #[test]
    fn const_and_cookie_params() {
        let s = SqlServlet::new(
            ServletSpec::new("s").with_key_cookie_params(&["maker"]),
            "t",
            vec![QueryTemplate::new(
                "SELECT model FROM Car WHERE maker = $1 AND price < $2",
                vec![
                    ParamSource::Cookie("maker".into(), ColType::Str),
                    ParamSource::Const(Value::Int(1_000_000)),
                ],
            )],
        );
        let mut c = conn();
        let req = HttpRequest::get("h", "/s", &[]).with_cookie("maker", "Honda");
        let body = s.handle(&req, &mut c).unwrap();
        assert!(body.contains("Civic"));
        assert!(!body.contains("Avalon"));
    }

    #[test]
    fn fn_servlet_runs_closure() {
        let s = FnServlet::new(
            ServletSpec::new("fn").with_key_get_params(&["min"]),
            |req: &HttpRequest, conn: &mut dyn Connection| {
                let min: i64 = req.get_param("min").unwrap_or("0").parse().unwrap_or(0);
                let r = conn.query(
                    "SELECT COUNT(*) FROM Car WHERE price >= $1",
                    &[Value::Int(min)],
                )?;
                Ok(format!("<html><body>count={}</body></html>", r.rows[0][0]))
            },
        );
        let mut c = conn();
        let req = HttpRequest::get("h", "/fn", &[("min", "20000")]);
        assert_eq!(
            s.handle(&req, &mut c).unwrap(),
            "<html><body>count=1</body></html>"
        );
    }

    #[test]
    fn spec_builder() {
        let spec = ServletSpec::new("x")
            .with_key_get_params(&["a"])
            .with_temporal_sensitivity_ms(500)
            .non_cacheable();
        assert_eq!(spec.temporal_sensitivity_ms, Some(500));
        assert!(!spec.cacheable);
    }
}
