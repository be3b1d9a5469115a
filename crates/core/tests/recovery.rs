//! Crash-recovery integration tests: a portal journals its QI/URL map,
//! page origins, and sync cursor to a durable directory; "crashing" drops
//! the portal (the simulated DBMS process and, optionally, the page cache
//! survive) and `recover()` rebuilds it from disk.
//!
//! The safety property under test: after recovery plus one sync point the
//! freshness oracle finds **zero** stale pages, with any uncertainty
//! resolved by conservative ejection (recovery-gap), never by serving
//! stale content.

use cacheportal::db::schema::ColType;
use cacheportal::db::Database;
use cacheportal::sniffer::QiUrlEntry;
use cacheportal::web::{
    shared, HttpRequest, PageKey, ParamSource, QueryTemplate, ServletSpec, SqlServlet,
};
use cacheportal::{CachePortal, CursorRecord, Durability, DurableRecord, OriginRecord, Served};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cp-recovery-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn example_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT, INDEX(model))")
        .unwrap();
    db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT, INDEX(model))")
        .unwrap();
    db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',25000), ('Honda','Civic',18000)")
        .unwrap();
    db.execute("INSERT INTO Mileage VALUES ('Avalon', 28.0), ('Civic', 36.5)")
        .unwrap();
    db
}

fn search_servlet() -> Arc<dyn cacheportal::web::Servlet> {
    Arc::new(SqlServlet::new(
        ServletSpec::new("carSearch").with_key_get_params(&["maxprice"]),
        "Car search",
        vec![QueryTemplate::new(
            "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage \
             WHERE Car.model = Mileage.model AND Car.price < $1",
            vec![ParamSource::Get("maxprice".into(), ColType::Int)],
        )],
    ))
}

fn req(maxprice: i64) -> HttpRequest {
    HttpRequest::get(
        "shop.example.com",
        "/carSearch",
        &[("maxprice", &maxprice.to_string())],
    )
}

#[test]
fn recovery_restores_map_origins_and_cursor() {
    let dir = temp_dir();
    let db = shared(example_db());
    let p = CachePortal::builder_shared(db.clone())
        .durable(&dir)
        .build()
        .unwrap();
    p.register_servlet(search_servlet());
    assert_eq!(p.request(&req(20000)).served, Served::Generated);
    assert_eq!(p.request(&req(30000)).served, Served::Generated);
    p.sync_point().unwrap(); // map rows + origins + cursor now durable
    let cache = p.page_cache().clone();
    let map_len = p.qi_url_map().len();
    drop(p); // crash
    let journaled: Vec<String> =
        (Durability::load(&dir).unwrap().map_entries.into_iter()).map(|e| e.sql).collect();

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache)
        .recover()
        .unwrap();
    p2.register_servlet(search_servlet());
    let stats = p2.recovery_stats().expect("built via recover()").clone();
    assert_eq!(stats.gap_ejected, 0, "everything was durable before the crash");
    assert_eq!(stats.map_entries, map_len);
    assert_eq!(stats.origins, 2);
    assert_eq!(stats.resumed_sync_seq, 1);

    // Both pages survived and are still fresh.
    assert!(p2.stale_pages().is_empty());
    assert_eq!(p2.request(&req(20000)).served, Served::CacheHit);
    assert_eq!(p2.request(&req(30000)).served, Served::CacheHit);

    // The recovered rows were typed as they were replayed: they render the
    // texts they were journaled as, and the two rows of the one type share
    // its template.
    let shown: Vec<String> = (p2.qi_url_map().all().into_iter()).map(|e| e.sql).collect();
    assert_eq!(shown, journaled);
    let mut templates = Vec::new();
    p2.qi_url_map().visit_since(0, |row| templates.push(row.instance().template.clone()));
    assert_eq!(templates.len(), 2);
    assert!(Arc::ptr_eq(&templates[0], &templates[1]));
    assert_eq!(p2.sync_point().unwrap().invalidation.registered, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every car priced above `minprice`.
fn above_servlet() -> Arc<dyn cacheportal::web::Servlet> {
    Arc::new(SqlServlet::new(
        ServletSpec::new("carsAbove").with_key_get_params(&["minprice"]),
        "Cars above",
        vec![QueryTemplate::new(
            "SELECT Car.model, Car.price FROM Car WHERE Car.price > $1",
            vec![ParamSource::Get("minprice".into(), ColType::Int)],
        )],
    ))
}

/// The smallest INT a request can carry is journaled as
/// `-9223372036854775808`; the row must read back, or no update would ever
/// reach the page recovery keeps.
#[test]
fn a_page_keyed_on_the_smallest_int_is_ejected_after_recovery() {
    let dir = temp_dir();
    let db = shared(example_db());
    let p = CachePortal::builder_shared(db.clone())
        .durable(&dir)
        .build()
        .unwrap();
    p.register_servlet(above_servlet());
    let page = HttpRequest::get("shop", "/carsAbove", &[("minprice", &i64::MIN.to_string())]);
    assert_eq!(p.request(&page).served, Served::Generated);
    p.sync_point().unwrap();
    let cache = p.page_cache().clone();
    drop(p);

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache)
        .recover()
        .unwrap();
    p2.register_servlet(above_servlet());
    assert_eq!(p2.recovery_stats().unwrap().gap_ejected, 0);
    assert_eq!(p2.request(&page).served, Served::CacheHit);
    p2.update("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
    assert_eq!(p2.sync_point().unwrap().ejected, 1);
    assert!(p2.stale_pages().is_empty());
    assert!(p2.request(&page).response.body.contains("Rio"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journaled row whose text does not parse is a dependency edge recovery
/// cannot restore: the page it belongs to is gap-ejected, whatever the
/// journal says of its admission, and the row is counted as unparseable.
#[test]
fn a_journaled_row_that_does_not_type_gap_ejects_its_page() {
    let dir = temp_dir();
    let db = shared(example_db());
    let p = CachePortal::builder_shared(db.clone()).build().unwrap();
    p.register_servlet(search_servlet());
    let (kept, lost) = (p.request(&req(30000)).key.unwrap(), p.request(&req(20000)).key.unwrap());
    p.sync_point().unwrap();
    let stamp = |key: &PageKey| p.page_cache().admitted_at(key).unwrap();
    let rows = p.qi_url_map().all().into_iter();
    let mut records: Vec<DurableRecord> = rows.map(DurableRecord::MapEntry).collect();
    records.push(DurableRecord::MapEntry(QiUrlEntry {
        id: 2,
        sql: "SELECT Car.model FROM Car WHERE".into(),
        page_key: lost.clone(),
        servlet: "carSearch".into(),
    }));
    for (key, maxprice) in [(&kept, 30000), (&lost, 20000)] {
        let (page, request, admitted_at) = (key.clone(), req(maxprice), stamp(key));
        let origin = OriginRecord { page, request, admitted_at };
        records.push(DurableRecord::Origin(origin));
    }
    let consumed = db.read().high_water();
    let cursor = CursorRecord { consumed, sync_seq: 1, ..CursorRecord::default() };
    records.push(DurableRecord::Cursor(cursor));
    // The journal's framing: header, then `[len][crc32][payload]` per record.
    let mut wal = b"CPWAL\0\x01\x00".to_vec();
    for record in &records {
        let payload = serde_json::to_string(record).unwrap();
        wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wal.extend_from_slice(&cacheportal_durable::crc32(payload.as_bytes()).to_le_bytes());
        wal.extend_from_slice(payload.as_bytes());
    }
    std::fs::write(cacheportal_durable::wal_path(&dir), wal).unwrap();
    let cache = p.page_cache().clone();
    drop(p);

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache.clone())
        .recover()
        .unwrap();
    p2.register_servlet(search_servlet());
    let stats = p2.recovery_stats().unwrap().clone();
    assert_eq!((stats.map_entries, stats.origins, stats.gap_ejected), (2, 2, 1));
    assert!(cache.contains(&kept));
    assert!(!cache.contains(&lost));
    assert_eq!(p2.obs().metrics.counter_value("invalidator.unparseable"), 1);
    let why = serde_json::to_string(&p2.explain_invalidation(lost.as_str())).unwrap();
    assert!(why.contains("recovery-gap") && why.contains("does not parse"), "{why}");
    p2.update("UPDATE Car SET price = 17000 WHERE model = 'Civic'").unwrap();
    p2.sync_point().unwrap();
    assert!(p2.stale_pages().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gap_admissions_are_conservatively_ejected() {
    let dir = temp_dir();
    let db = shared(example_db());
    let p = CachePortal::builder_shared(db.clone())
        .durable(&dir)
        .build()
        .unwrap();
    p.register_servlet(search_servlet());
    p.request(&req(20000));
    p.sync_point().unwrap(); // page A durable
    p.request(&req(30000)); // page B admitted, NOT yet durable
    let cache = p.page_cache().clone();
    let key_a = p.request(&req(20000)).key.unwrap();
    let key_b = p.request(&req(30000)).key.unwrap();
    drop(p); // crash before the sync that would persist B's origin

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache.clone())
        .recover()
        .unwrap();
    p2.register_servlet(search_servlet());
    let stats = p2.recovery_stats().unwrap().clone();
    assert_eq!(stats.gap_ejected, 1, "B was admitted in the durability gap");
    assert!(cache.contains(&key_a), "durable page survives");
    assert!(!cache.contains(&key_b), "gap page conservatively ejected");

    // The gap eject carries recovery-gap provenance.
    let doc = p2.explain_invalidation(key_b.as_str());
    assert!(
        serde_json::to_string(&doc).unwrap().contains("recovery-gap"),
        "provenance must name the recovery gap: {doc:?}"
    );

    // Health remembers the recovery and the gap ejects.
    let h = p2.obs().health.snapshot(&p2.obs().metrics);
    assert_eq!(h.recoveries, 1);
    assert_eq!(h.recovery_gap_ejects, 1);

    assert!(p2.stale_pages().is_empty());
    assert_eq!(p2.request(&req(30000)).served, Served::Generated);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsynced_updates_are_reanalyzed_after_recovery() {
    let dir = temp_dir();
    let db = shared(example_db());
    let p = CachePortal::builder_shared(db.clone())
        .durable(&dir)
        .build()
        .unwrap();
    p.register_servlet(search_servlet());
    p.request(&req(20000));
    p.request(&req(30000));
    p.sync_point().unwrap();
    // Updates land in the shared log; the portal crashes before the sync
    // point that would process them (cursor on disk predates them).
    p.update("INSERT INTO Mileage VALUES ('Camry', 30.0)").unwrap();
    p.update("INSERT INTO Car VALUES ('Toyota','Camry',22000)").unwrap();
    let cache = p.page_cache().clone();
    drop(p);

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache)
        .recover()
        .unwrap();
    p2.register_servlet(search_servlet());
    // The page is stale until the first post-recovery sync point…
    assert_eq!(p2.stale_pages().len(), 1);
    let report = p2.sync_point().unwrap();
    assert_eq!(report.ejected, 1, "replayed tail ejects the affected page");
    // …and never after it.
    assert!(p2.stale_pages().is_empty());
    assert!(p2.request(&req(30000)).response.body.contains("Camry"));
    assert_eq!(
        p2.request(&req(20000)).served,
        Served::CacheHit,
        "a durable page the tail does not touch still serves from the surviving cache"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A group total, the shape whose "unchanged" verdict holds only for pages
/// that existed at both ends of the window.
fn totals_servlet() -> Arc<dyn cacheportal::web::Servlet> {
    Arc::new(SqlServlet::new(
        ServletSpec::new("totals").with_key_get_params(&["g"]),
        "Group totals",
        vec![QueryTemplate::new(
            "SELECT COUNT(*), SUM(k) FROM t WHERE g = $1",
            vec![ParamSource::Get("g".into(), ColType::Int)],
        )],
    ))
}

/// The nightly crash-restart soak's seed 129, in miniature. The journal
/// records admissions and never ejections, so a page ejected at one sync
/// point and admitted again before the crash still has its first origin on
/// disk. Recovery used to keep such a page on the strength of that origin.
/// Here the page was regenerated between an insert and the delete that
/// cancels it: re-analysing the window finds the group's totals unchanged,
/// and only the netting guard, whose window died with the process, would
/// have ejected it. The journal's stamp is the first admission's, the
/// cache's is the second's, so recovery ejects it.
#[test]
fn a_page_admitted_again_after_its_eject_is_not_kept_on_its_old_origin() {
    let dir = temp_dir();
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INT, g INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 4), (2, 5)").unwrap();
    let db = shared(db);
    let p = CachePortal::builder_shared(db.clone())
        .durable(&dir)
        .build()
        .unwrap();
    p.register_servlet(totals_servlet());
    let page = HttpRequest::get("shop", "/totals", &[("g", "4")]);
    let key = p.request(&page).key.unwrap();
    let first_admitted_at = p.page_cache().admitted_at(&key).unwrap();
    p.sync_point().unwrap(); // its rows and origin are durable
    p.update("INSERT INTO t VALUES (3, 4)").unwrap();
    assert_eq!(p.sync_point().unwrap().ejected, 1);

    // The next window: a row comes and goes around the regeneration.
    p.update("INSERT INTO t VALUES (6, 4)").unwrap();
    assert_eq!(p.request(&page).served, Served::Generated);
    p.update("DELETE FROM t WHERE k = 6").unwrap();
    assert_eq!(p.stale_pages(), std::slice::from_ref(&key));
    let cache = p.page_cache().clone();
    assert!(cache.admitted_at(&key).unwrap() > first_admitted_at);
    drop(p); // crash before the sync point whose guard would eject it

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache.clone())
        .recover()
        .unwrap();
    p2.register_servlet(totals_servlet());
    let stats = p2.recovery_stats().unwrap().clone();
    assert_eq!((stats.origins, stats.gap_ejected), (1, 1));
    assert!(!cache.contains(&key), "the journal holds an older admission");
    p2.sync_point().unwrap();
    assert!(p2.stale_pages().is_empty());
    // The clock resumed past the journal's stamps: no admission from here
    // on can pass for the journaled one.
    assert_eq!(p2.request(&page).served, Served::Generated);
    assert!(cache.admitted_at(&key).unwrap() > first_admitted_at);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal written before admissions were stamped (its origins are bare
/// requests) still loads, and proves no admission: every surviving page is
/// gap-ejected, and the map rows and cursor are used as before.
#[test]
fn a_journal_without_stamps_recovers_conservatively() {
    let dir = temp_dir();
    let db = shared(example_db());
    let p = CachePortal::builder_shared(db.clone()).build().unwrap();
    p.register_servlet(search_servlet());
    let key = p.request(&req(30000)).key.unwrap();
    p.sync_point().unwrap();
    let origins: HashMap<PageKey, HttpRequest> = [(key.clone(), req(30000))].into_iter().collect();
    let cursor = CursorRecord { consumed: db.read().high_water(), sync_seq: 1, ..CursorRecord::default() };
    let mut journal = Durability::open(&dir, 8).unwrap();
    let batch: Vec<_> = origins.clone().into_iter().collect();
    assert_eq!(journal.persist_sync(p.qi_url_map(), &batch, &origins, cursor).errors, 0);
    drop(journal);
    let cache = p.page_cache().clone();
    drop(p);

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache.clone())
        .recover()
        .unwrap();
    p2.register_servlet(search_servlet());
    let stats = p2.recovery_stats().unwrap().clone();
    assert_eq!((stats.map_entries, stats.origins, stats.gap_ejected), (1, 1, 1));
    assert!(cache.is_empty());
    p2.update("UPDATE Car SET price = 24000 WHERE model = 'Avalon'").unwrap();
    assert_eq!(p2.sync_point().unwrap().invalidation.registered, 1);
    assert!(p2.request(&req(30000)).response.body.contains("24000"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_interval_is_configurable() {
    let run = |interval: u64, syncs: u64| -> u64 {
        let dir = temp_dir();
        let db = shared(example_db());
        let p = CachePortal::builder_shared(db)
            .durable(&dir)
            .checkpoint_interval(interval)
            .build()
            .unwrap();
        p.register_servlet(search_servlet());
        p.request(&req(20000));
        for _ in 0..syncs {
            p.sync_point().unwrap();
        }
        let snap = p.metrics_snapshot();
        let checkpoints =
            snap.metrics.counters.get("durable.checkpoints").copied().unwrap_or(0);
        std::fs::remove_dir_all(&dir).unwrap();
        checkpoints
    };
    assert_eq!(run(1, 4), 4, "interval 1 snapshots every sync");
    assert_eq!(run(2, 4), 2, "interval 2 snapshots every other sync");
    assert_eq!(run(100, 4), 0, "interval above the sync count never snapshots");
}

/// Recovery cost against the checkpoint interval, the table EXPERIMENTS.md
/// quotes. Each cell requests 54 pages over 18 sync points with an update
/// per round, leaves two admissions in the durability gap, crashes, and
/// recovers; the recovered portal must be fresh after one sync point.
///
/// ```text
/// cargo test --release -p cacheportal --test recovery -- --ignored --nocapture
/// ```
#[test]
#[ignore = "checkpoint-interval sweep; prints the EXPERIMENTS.md recovery table"]
fn checkpoint_interval_sweep() {
    let (pages, syncs) = (54, 18);
    let mut table = String::from(
        "| checkpoint interval | recovery time (µs) | WAL records replayed | \
         gap ejects | map entries recovered |\n|---:|---:|---:|---:|---:|\n",
    );
    for interval in [1u64, 2, 4, 8, 16, 32] {
        let dir = temp_dir();
        let db = shared(example_db());
        let p = CachePortal::builder_shared(db.clone())
            .durable(&dir)
            .checkpoint_interval(interval)
            .build()
            .unwrap();
        p.register_servlet(search_servlet());
        let mut price = 15000;
        for round in 0..syncs {
            for _ in 0..pages / syncs {
                p.request(&req(price));
                price += 500;
            }
            let civic = 17000 + round;
            p.update(&format!("UPDATE Car SET price = {civic} WHERE model = 'Civic'")).unwrap();
            p.sync_point().unwrap();
        }
        p.request(&req(price));
        p.request(&req(price + 500));
        let cache = p.page_cache().clone();
        drop(p);

        let started = Instant::now();
        let p2 = CachePortal::builder_shared(db)
            .durable(&dir)
            .checkpoint_interval(interval)
            .surviving_cache(cache)
            .recover()
            .unwrap();
        let us = started.elapsed().as_micros();
        p2.register_servlet(search_servlet());
        let stats = p2.recovery_stats().unwrap().clone();
        p2.sync_point().unwrap();
        assert!(p2.stale_pages().is_empty(), "interval {interval}: stale after recovery");
        let (wal, gap, map) = (stats.wal_records, stats.gap_ejected, stats.map_entries);
        table += &format!("| {interval} | {us} | {wal} | {gap} | {map} |\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    print!("{table}");
}

/// Crash the invalidator *between* an edge's ack and the journal persist:
/// the edge has already applied an eject batch the durable marks know
/// nothing about. Recovery must replay that delivery (at-least-once), and
/// the edge must absorb the replay idempotently — no staleness, and the
/// durability-gap admission carries recovery-gap provenance.
#[test]
fn edge_ack_ahead_of_journal_is_replayed_and_absorbed() {
    let dir = temp_dir();
    let db = shared(example_db());
    let p = CachePortal::builder_shared(db.clone())
        .durable(&dir)
        .build()
        .unwrap();
    p.register_servlet(search_servlet());
    let edge = Arc::new(cacheportal::cache::PageCache::new(
        cacheportal::cache::PageCacheConfig::default(),
    ));
    p.register_edge_cache(edge.clone());

    let key_a = p.request(&req(20000)).key.unwrap();
    // B's predicate (price < 15000) matches neither the old nor the new
    // Civic price, so the update below leaves it fresh.
    let key_b = p.request(&req(15000)).key.unwrap();
    p.sync_point().unwrap(); // marks durable: edge acked batch 1 (heartbeat)
    assert!(edge.contains(&key_a) && edge.contains(&key_b), "admissions mirrored");

    // An update makes page A stale; page C lands in the durability gap.
    p.update("UPDATE Car SET price = 17000 WHERE model = 'Civic'").unwrap();
    let key_c = p.request(&req(40000)).key.unwrap();
    // Hand-run the *delivery* half of the next sync: publish the eject of A
    // as batch 2 and deliver it, exactly what sync 2 would do before its
    // persist step. The edge ejects A and acks seq 2 — and then the
    // invalidator dies before the journal learns any of it.
    p.bus().publish(2, 1_000_000, vec![key_a.clone()]);
    p.bus().deliver_all(1_000_000);
    assert!(!edge.contains(&key_a), "edge applied the eject pre-crash");
    assert_eq!(p.bus().edge_rows()[0].acked, 2, "ack outran the journal");
    let cache = p.page_cache().clone();
    drop(p); // crash between edge-ack and journal persist

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache)
        .recover()
        .unwrap();
    p2.register_servlet(search_servlet());
    p2.register_edge_cache(edge.clone());
    // The durable mark (acked 1) is current w.r.t. the persisted frontier,
    // so the edge keeps pre-mark pages and flushes the gap admission.
    assert!(edge.contains(&key_b), "pre-mark page survives the rejoin");
    assert!(!edge.contains(&key_c), "gap admission flushed at rejoin");
    assert!(
        serde_json::to_string(&p2.explain_invalidation(key_c.as_str()))
            .unwrap()
            .contains("recovery-gap"),
        "gap eject must carry recovery-gap provenance"
    );

    // The un-truncated window replays: the eject of A is republished under
    // the restored frontier and redelivered to the edge, whose cache
    // already did the work — the replay must be absorbed, not double-done.
    let report = p2.sync_point().unwrap();
    assert!(report.ejected >= 1, "replayed window re-ejects the stale page");
    let ep = &p2.bus().endpoints()[0];
    assert_eq!(ep.counters().applied_batches, 1, "replayed batch re-applied");
    assert_eq!(
        ep.counters().ejected_pages,
        0,
        "the edge already ejected A pre-crash; the replay is a no-op"
    );
    let row = &p2.bus().edge_rows()[0];
    assert_eq!(row.lag, 0, "edge caught back up to the watermark");

    // At-least-once also means raw wire duplicates: re-applying the same
    // batch seq is absorbed without touching the cache.
    let before = edge.len();
    let ack = ep.apply(&[cacheportal::bus::EjectBatch {
        seq: row.acked,
        sync_seq: 2,
        ts: 1_000_001,
        pages: vec![key_a.clone()],
    }]);
    assert_eq!(ack.applied_seq, row.acked, "duplicate re-acks the watermark");
    assert_eq!(ep.counters().absorbed_duplicates, 1);
    assert_eq!(edge.len(), before, "duplicate leaves the cache untouched");

    assert!(p2.stale_pages().is_empty(), "no staleness anywhere after replay");
    assert!(p2.request(&req(20000)).response.body.contains("17000"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An edge partitioned across the crash: its durable mark is older than the
/// persisted frontier, and the batches in between died with the
/// invalidator's retained buffer. The rejoin must rebase the edge — full
/// conservative flush, watermark jumped to the frontier — never replaying
/// a gap it cannot fill.
#[test]
fn partitioned_edge_across_a_crash_rejoins_by_rebase() {
    let dir = temp_dir();
    let db = shared(example_db());
    let p = CachePortal::builder_shared(db.clone())
        .durable(&dir)
        .build()
        .unwrap();
    p.register_servlet(search_servlet());
    let edge = Arc::new(cacheportal::cache::PageCache::new(
        cacheportal::cache::PageCacheConfig::default(),
    ));
    p.register_edge_cache(edge.clone());
    p.request(&req(20000));
    p.request(&req(30000));
    p.sync_point().unwrap(); // edge acked batch 1

    // Partition the edge, then push two synced updates past it. Each sync
    // persists marks: acked stays 1 while the frontier advances.
    p.partition_edge(0, true);
    for (i, price) in [23000i64, 24000].iter().enumerate() {
        p.update(&format!("UPDATE Car SET price = {price} WHERE model = 'Avalon'"))
            .unwrap();
        p.sync_point().unwrap();
        assert!(edge.is_empty(), "missed round {i}: edge self-ejected to empty");
    }
    let frontier = p.bus().latest_seq();
    assert!(frontier > 1, "syncs advanced the frontier past the edge's mark");
    let cache = p.page_cache().clone();
    drop(p); // crash: the retained batches (2..=frontier) die here

    let p2 = CachePortal::builder_shared(db)
        .durable(&dir)
        .surviving_cache(cache)
        .recover()
        .unwrap();
    p2.register_servlet(search_servlet());
    p2.register_edge_cache(edge.clone());
    let row = &p2.bus().edge_rows()[0];
    assert_eq!(
        row.acked, frontier,
        "mark older than the frontier: edge rebased, not left waiting for dead batches"
    );
    assert_eq!(row.lag, 0);
    assert!(edge.is_empty(), "rebase is a full conservative flush");
    assert!(!row.partitioned, "rejoin clears the partition mark");

    // The rebased edge participates normally again.
    p2.sync_point().unwrap();
    let key = p2.request(&req(30000)).key.unwrap();
    assert!(edge.contains(&key), "admissions mirror to the rebased edge");
    assert!(p2.stale_pages().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_survives_repeated_crashes() {
    let dir = temp_dir();
    let db = shared(example_db());
    let mut cache = None;
    let mut prices = vec![19000, 26000, 40000];
    for round in 0..3 {
        let builder = CachePortal::builder_shared(db.clone())
            .durable(&dir)
            .checkpoint_interval(2);
        let builder = match cache.take() {
            Some(c) => builder.surviving_cache(c),
            None => builder,
        };
        let p = if round == 0 {
            builder.build().unwrap()
        } else {
            builder.recover().unwrap()
        };
        p.register_servlet(search_servlet());
        for price in &prices {
            p.request(&req(*price));
        }
        p.sync_point().unwrap();
        p.update(&format!(
            "UPDATE Car SET price = {} WHERE model = 'Avalon'",
            24000 + round * 100
        ))
        .unwrap();
        p.sync_point().unwrap();
        assert!(p.stale_pages().is_empty(), "round {round} went stale");
        prices.push(21000 + round * 1000);
        cache = Some(p.page_cache().clone());
        // crash at end of round
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
