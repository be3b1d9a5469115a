//! What rendering a page allocates, counted: a storefront servlet call minus
//! its query is the render, and it is a handful of blocks whatever the
//! result's row count — the parameter list, the table, the fragment list and
//! the page — because each cell is escaped straight into a buffer sized
//! exactly for the page.

#[path = "../../core/tests/common/mod.rs"]
mod common;
#[path = "../../db/tests/storefront/mod.rs"]
mod storefront;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

use cacheportal_db::schema::ColType;
use cacheportal_db::Value;
use cacheportal_web::render::{html_page, html_table};
use cacheportal_web::{
    shared, Connection, DbConnection, HttpRequest, ParamSource, QueryTemplate, Servlet,
    ServletSpec, SqlServlet,
};

/// Allocator calls a servlet call may make beyond its query.
const RENDER_BUDGET: usize = 6;

#[test]
fn a_page_render_allocates_the_same_few_blocks_at_any_row_count() {
    let db = shared(storefront::database(1));
    let mut conn = DbConnection::new(db.clone());
    for (name, title, sql) in storefront::SERVLETS {
        let param = if name == "product" { "sku" } else { "category" };
        let servlet = SqlServlet::new(
            ServletSpec::new(name).with_key_get_params(&[param]),
            title,
            vec![QueryTemplate::new(
                sql,
                vec![ParamSource::Get(param.into(), ColType::Int)],
            )],
        );
        let request = HttpRequest::get("shop", &format!("/{name}"), &[(param, "7")]);
        let page = servlet.handle(&request, &mut conn).expect("page renders");
        let (_, query) = common::measure(|| conn.query(sql, &[Value::Int(7)]).expect("query runs"));
        let (again, call) =
            common::measure(|| servlet.handle(&request, &mut conn).expect("page renders"));
        assert_eq!(again, page);
        let render = call.calls - query.calls;
        println!(
            "{name}: {} allocations per call, {render} beyond the query",
            call.calls
        );
        assert!(
            render <= RENDER_BUDGET,
            "{name}: {render} allocations to render"
        );
    }

    // The whole catalog in one table: still one buffer for the table and
    // one for the page.
    let all = db
        .read()
        .query("SELECT sku, name, category, price FROM products")
        .expect("query runs");
    assert_eq!(all.rows.len(), storefront::SKUS);
    let (page, render) = common::measure(|| html_page("All products", &[html_table(&all)]));
    println!(
        "{} rows: {} allocations to render",
        all.rows.len(),
        render.calls
    );
    assert!(page.ends_with("</table>\n</body></html>"));
    assert!(
        render.calls <= RENDER_BUDGET,
        "{} allocations",
        render.calls
    );
}
