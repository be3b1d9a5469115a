//! The paper's full Figure 4 topology as a functional system: a farm of
//! web/application servers behind a round-robin load balancer, one shared
//! database, and one dynamic web-page cache in front — each node running
//! its own sniffer logs, all feeding a single invalidator. It is the same
//! `CachePortal` as everywhere else, built with `.nodes(4)`.
//!
//! ```text
//! cargo run --example server_farm
//! ```

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::{CachePortal, Served};
use std::sync::Arc;

fn main() {
    // One database, shared by the whole farm.
    let mut db = Database::new();
    db.execute("CREATE TABLE news (section TEXT, id INT, headline TEXT, INDEX(section))")
        .unwrap();
    let sections = ["world", "tech", "sports", "business"];
    for i in 0..80i64 {
        let section = sections[(i % 4) as usize];
        db.insert_row(
            "news",
            vec![section.into(), i.into(), format!("Headline #{i}").into()],
        )
        .unwrap();
    }

    // Four server nodes, like the paper's testbed.
    let farm = CachePortal::builder(db).nodes(4).build().unwrap();
    farm.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("section").with_key_get_params(&["name"]),
        "Section front page",
        vec![QueryTemplate::new(
            "SELECT id, headline FROM news WHERE section = $1 ORDER BY id DESC LIMIT 10",
            vec![ParamSource::Get("name".into(), ColType::Str)],
        )],
    )));

    // Cold traffic: each section page generated once, spread over the farm.
    for s in sections {
        let out = farm.request(&HttpRequest::get("news.example.com", "/section", &[("name", s)]));
        assert_eq!(out.served, Served::Generated);
    }
    println!("node loads after cold traffic: {:?}", farm.node_loads());

    // Warm traffic never reaches the farm.
    for _ in 0..5 {
        for s in sections {
            let out =
                farm.request(&HttpRequest::get("news.example.com", "/section", &[("name", s)]));
            assert_eq!(out.served, Served::CacheHit);
        }
    }
    println!("node loads after warm traffic: {:?} (unchanged)", farm.node_loads());

    farm.sync_point().unwrap();
    println!("QI/URL map rows from 4 per-node sniffers: {}", farm.qi_url_map().len());

    // Breaking news in one section: exactly that page is ejected.
    farm.update("INSERT INTO news VALUES ('tech', 1000, 'CachePortal reproduced in Rust')")
        .unwrap();
    let r = farm.sync_point().unwrap();
    println!("tech update ejected {} page(s)", r.ejected);
    assert_eq!(r.ejected, 1);

    for s in ["world", "sports", "business"] {
        assert_eq!(
            farm.request(&HttpRequest::get("news.example.com", "/section", &[("name", s)]))
                .served,
            Served::CacheHit
        );
    }
    let tech = farm.request(&HttpRequest::get(
        "news.example.com",
        "/section",
        &[("name", "tech")],
    ));
    assert_eq!(tech.served, Served::Generated);
    assert!(tech.response.body.contains("CachePortal reproduced in Rust"));
    assert!(farm.stale_pages().is_empty());

    // Why was the tech page ejected? The provenance chain — consumed LSNs,
    // the ΔR group, the matched query type with its verdict — holds whichever
    // node generated the page.
    let key = tech.key.expect("a routable page has a key");
    let why = farm.explain_invalidation(key.as_str());
    let m = &why.matches[0];
    let cause = &m.causes[0];
    println!(
        "why {} was ejected: update-log LSNs {}..={} matched `{}` — {} ({})",
        key.as_str(),
        m.lsn_first,
        m.lsn_last,
        cause.type_sql,
        cause.verdict,
        cause.detail
    );
    assert_eq!(farm.obs().verify_causal_chains(), Ok(1));

    let stats = farm.page_cache().stats();
    println!(
        "front cache: {} hits / {} lookups ({:.0}% hit ratio), no stale pages ✓",
        stats.hits,
        stats.lookups(),
        stats.hit_ratio() * 100.0
    );
}
