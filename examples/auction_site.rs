//! An auction site — the hard case for dynamic-content caching: bid pages
//! change constantly, closed-auction pages almost never.
//!
//! Shows: temporal sensitivity and non-cacheable servlets (§3.1), automatic
//! policy discovery marking hot query types non-cacheable (§4.1.4), the
//! polling budget degrading gracefully to conservative invalidation
//! (§4.2.2), and the TTL baseline serving stale bids.
//!
//! ```text
//! cargo run --example auction_site
//! ```

use cacheportal::cache::PageCacheConfig;
use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::invalidator::InvalidatorConfig;
use cacheportal::web::{HttpRequest, ParamSource, QueryTemplate, ServletSpec, SqlServlet};
use cacheportal::{CachePortal, Served};
use std::sync::Arc;

fn build_auctions() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE auctions (id INT, title TEXT, status TEXT, INDEX(id))")
        .unwrap();
    db.execute("CREATE TABLE bids (auction INT, bidder TEXT, amount INT, INDEX(auction))")
        .unwrap();
    for i in 0..20i64 {
        let status = if i < 15 { "closed" } else { "live" };
        db.insert_row(
            "auctions",
            vec![i.into(), format!("Lot #{i}").into(), status.into()],
        )
        .unwrap();
        db.insert_row(
            "bids",
            vec![i.into(), "seed-bidder".into(), (100 + i).into()],
        )
        .unwrap();
    }
    db
}

fn main() {
    // Policy discovery: a type whose instances are invalidated on most
    // update batches gets marked non-cacheable after 3 batches.
    let mut inv_cfg = InvalidatorConfig::default();
    inv_cfg.policy.non_cacheable_invalidation_ratio = Some(0.6);
    inv_cfg.policy.min_batches_for_ratio = 3;
    inv_cfg.policy.poll_budget_per_sync = Some(16);

    let portal = CachePortal::builder(build_auctions())
        .invalidator_config(inv_cfg)
        .cache_config(PageCacheConfig {
            capacity: 64,
            ttl_micros: None,
        })
        .build()
        .unwrap();

    // Closed-auction summary: stable content, cache freely.
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("closed").with_key_get_params(&["id"]),
        "Closed auction",
        vec![QueryTemplate::new(
            "SELECT auctions.title, bids.bidder, bids.amount FROM auctions, bids \
             WHERE auctions.id = $1 AND auctions.id = bids.auction \
             ORDER BY bids.amount DESC",
            vec![ParamSource::Get("id".into(), ColType::Int)],
        )],
    )));
    // Live bid ticker: declared too temporally sensitive to cache at all.
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("ticker")
            .with_key_get_params(&["id"])
            .with_temporal_sensitivity_ms(50)
            .non_cacheable(),
        "Live ticker",
        vec![QueryTemplate::new(
            "SELECT bidder, amount FROM bids WHERE auction = $1 ORDER BY amount DESC",
            vec![ParamSource::Get("id".into(), ColType::Int)],
        )],
    )));
    // Hot-lot leaderboard: cacheable in principle, but updated so often
    // that policy discovery should ban it.
    portal.register_servlet(Arc::new(SqlServlet::new(
        ServletSpec::new("hotlots"),
        "Hot lots",
        vec![QueryTemplate::new(
            "SELECT auction, MAX(amount) FROM bids GROUP BY auction ORDER BY auction",
            vec![],
        )],
    )));

    // --- Declared non-cacheable pages are never cached -------------------
    let ticker = HttpRequest::get("auction", "/ticker", &[("id", "17")]);
    assert_eq!(portal.request(&ticker).served, Served::Generated);
    assert_eq!(portal.request(&ticker).served, Served::Generated);
    println!("ticker page: never cached (declared temporal sensitivity) ✓");

    // --- Closed auctions cache and survive unrelated bids ----------------
    let closed3 = HttpRequest::get("auction", "/closed", &[("id", "3")]);
    portal.request(&closed3);
    portal.sync_point().unwrap();
    portal
        .update("INSERT INTO bids VALUES (17, 'alice', 410)")
        .unwrap();
    portal.sync_point().unwrap();
    assert_eq!(portal.request(&closed3).served, Served::CacheHit);
    println!("closed-auction page survives bids on other lots ✓");

    // --- Policy discovery bans the hot leaderboard -----------------------
    let hotlots = HttpRequest::get("auction", "/hotlots", &[]);
    portal.request(&hotlots);
    portal.sync_point().unwrap();
    let mut banned_at = None;
    for round in 0..6 {
        portal
            .update(&format!(
                "INSERT INTO bids VALUES ({}, 'bot', {})",
                15 + (round % 5),
                500 + round * 10
            ))
            .unwrap();
        let r = portal.sync_point().unwrap();
        portal.request(&hotlots); // try to re-cache each round
        if !r.invalidation.newly_non_cacheable.is_empty() {
            banned_at = Some(round + 1);
            println!(
                "policy discovery banned after {} update batches: {}",
                round + 1,
                r.invalidation.newly_non_cacheable[0]
            );
            break;
        }
    }
    assert!(banned_at.is_some(), "hot type should get banned");
    assert_eq!(portal.request(&hotlots).served, Served::Generated);
    assert_eq!(
        portal.request(&hotlots).served,
        Served::Generated,
        "banned page no longer admitted to the cache"
    );

    // --- A bid burst exceeds the polling budget ---------------------------
    for i in 0..15 {
        let closed = HttpRequest::get("auction", "/closed", &[("id", &i.to_string())]);
        portal.request(&closed);
    }
    portal.sync_point().unwrap();
    for i in 0..40 {
        portal
            .update(&format!("INSERT INTO bids VALUES ({}, 'burst', {})", i % 15, 900 + i))
            .unwrap();
    }
    let r = portal.sync_point().unwrap();
    println!(
        "bid burst: {} polls issued (budget 16), {} decisions degraded to conservative, {} pages ejected",
        r.invalidation.polls.issued, r.invalidation.degraded_by_budget, r.ejected
    );
    assert!(r.invalidation.polls.issued <= 16);
    // Degradation never sacrifices freshness:
    assert!(portal.stale_pages().is_empty());
    println!("freshness after budget degradation: no stale pages ✓");
}
