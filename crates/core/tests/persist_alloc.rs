//! What a persist pass allocates, counted.
//!
//! The journal is there to survive a crash, not to hold a second copy of
//! the site: a `persist_sync` that checkpoints must allocate the same few
//! blocks whether the QI/URL map and the origin table hold a thousand pages
//! or sixteen thousand. (Before the write path streamed, it cloned both,
//! lowered the clones to a value tree, rendered that into one string and
//! copied the string: this test then counted 42 allocations and 2.4 KiB of
//! transient heap per page — 181 k allocations and 9.9 MiB at 4 300 pages.)
//! Nor must the site's *first* sync, whose window is every row and every
//! origin: the WAL writes its batch through 64 KiB at a time. (When it kept
//! the batch for one write at the sync, this test read a transient peak of
//! 3.8 MB at 4 300 pages and 15.3 MB at 16 000; it reads 146 KB at both.)

mod common;

use cacheportal::sniffer::QiUrlMap;
use cacheportal::web::{HttpRequest, PageKey};
use cacheportal::{CursorRecord, Durability, OriginRecord, SnapshotDoc};
use std::collections::HashMap;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

/// A checkpointing pass may hold the snapshot stream's 64 KiB file buffer,
/// one pointer per origin for the page-order sort (125 KiB at 16 000 pages),
/// and small change; a first sync, the WAL's batch buffer as it doubles past
/// 64 KiB.
const TRANSIENT_BOUND: usize = 256 * 1024;

fn cursor(consumed: u64) -> CursorRecord {
    CursorRecord {
        consumed,
        sync_seq: consumed,
        watermarks: vec![("product".into(), consumed)],
        bus_seq: consumed,
        edge_marks: vec![
            ("edge-0".into(), consumed, consumed),
            ("edge-1".into(), consumed, 0),
        ],
    }
}

#[test]
fn a_checkpointing_persist_holds_no_copy_of_the_site() {
    let mut report = Vec::new();
    let mut calls = Vec::new();
    let mut first_calls = Vec::new();
    for pages in [1_000usize, 4_300, 16_000] {
        let dir =
            std::env::temp_dir().join(format!("cp-persist-alloc-{}-{pages}", std::process::id()));
        let map = QiUrlMap::new();
        let mut origins = HashMap::new();
        for sku in 0..pages {
            let page = PageKey::raw(format!("shop.example.com/product?g:sku={sku}"));
            map.insert(
                &format!("SELECT name, price, stock FROM product WHERE sku = {sku}"),
                page.clone(),
                "product".into(),
            );
            let request =
                HttpRequest::get("shop.example.com", "/product", &[("sku", &sku.to_string())])
                    .with_cookie("session", "0123456789abcdef");
            origins.insert(page, request);
        }
        let admitted: Vec<(PageKey, HttpRequest)> = origins
            .iter()
            .map(|(p, r)| (p.clone(), r.clone()))
            .collect();

        let mut d = Durability::open(&dir, 2).unwrap();
        // The site's first sync journals every row and origin: its window
        // is the whole site.
        let (out, first) =
            common::measure(|| d.persist_sync(&map, &admitted, &origins, cursor(1)));
        assert_eq!((out.errors, out.checkpointed), (0, false));
        assert_eq!(out.appended as usize, 2 * pages + 1);
        report.push(format!(
            "{pages} pages: first sync of {} frames, transient peak {} bytes, {} allocations, {} bytes retained",
            out.appended, first.transient_peak, first.calls, first.retained
        ));
        assert!(
            first.transient_peak < TRANSIENT_BOUND,
            "{pages} pages: the first sync held {} transient bytes (bound {TRANSIENT_BOUND})",
            first.transient_peak
        );
        first_calls.push(first.calls);

        // Steady state: a window with a handful of admissions, and the
        // checkpoint that writes the whole site out.
        let window = &admitted[..8];
        let (out, allocated) =
            common::measure(|| d.persist_sync(&map, window, &origins, cursor(2)));
        assert_eq!((out.errors, out.checkpointed), (0, true));
        // The snapshot holds the site: every row and every origin record.
        let site = SnapshotDoc {
            map: map.all(),
            origins: (origins.keys())
                .map(|page| OriginRecord { page: page.clone(), admitted_at: 0 })
                .collect(),
            cursor: cursor(2),
        };
        let site_bytes = serde_json::to_string(&site).unwrap().len();
        assert_eq!(
            out.checkpoint_bytes as usize, site_bytes,
            "the snapshot of {pages} pages"
        );
        report.push(format!(
            "{pages} pages: snapshot {} bytes, transient peak {} bytes, {} allocations, {} bytes retained",
            out.checkpoint_bytes, allocated.transient_peak, allocated.calls, allocated.retained
        ));
        assert!(
            allocated.transient_peak < TRANSIENT_BOUND,
            "{pages} pages: a checkpointing persist held {} transient bytes (bound {TRANSIENT_BOUND})",
            allocated.transient_peak
        );
        calls.push(allocated.calls);
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    println!("{}", report.join("\n"));
    // Nothing is allocated per page: the count does not follow the site.
    assert!(
        calls.iter().all(|&c| c == calls[0] && c < 32),
        "allocations per pass: {calls:?}"
    );
    // Nor per page in a first sync. Its one record buffer grows to the
    // longest record, a map row: the 1 000-page site's skus have a digit
    // fewer, and the buffer one growth step fewer.
    assert_eq!(first_calls, [28, 29, 29], "allocations per first sync");
}
