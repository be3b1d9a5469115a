//! The journal's write path against the one it replaced.
//!
//! `Durability` used to build a `DurableRecord` per WAL frame and one
//! `SnapshotDoc` per checkpoint, lower each to a value tree, render it and
//! hand whole buffers to the durable layer. It now encodes borrowed rows a
//! record at a time, batches a sync's frames into one write and streams the
//! snapshot. The files must not have changed by a byte — `Durability::load`,
//! journals written before the change and `tests/registration_paths.rs` all
//! read them — and a torn batch must never recover as a cursor ahead of the
//! rows it covers.

use cacheportal::sniffer::QiUrlMap;
use cacheportal::web::{HttpRequest, PageKey};
use cacheportal::{CursorRecord, Durability, DurableRecord, OriginRecord, SnapshotDoc};
use cacheportal_bus::{Ack, EjectBatch};
use cacheportal_durable::{crc32, snapshot_path, wal_path};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cp-write-path-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Compact JSON the way the parent commit made it: lower to the tree, render
/// the tree.
fn through_the_tree<T: Serialize>(value: &T) -> String {
    serde_json::to_string(&value.serialize_value()).unwrap()
}

const WAL_HEADER: &[u8] = b"CPWAL\0\x01\x00";

/// The first sync's WAL and the checkpoint's snapshot of `site()`.
const WAL_BYTES: usize = 2371;
const SNAPSHOT_BYTES: usize = 2124;

/// The parent's WAL framing: `[len: u32 LE][crc32: u32 LE][payload]`.
fn frame(out: &mut Vec<u8>, record: &DurableRecord) {
    let payload = through_the_tree(record);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
}

/// The parent's snapshot file: header, then `SnapshotDoc` with the origins
/// in page order.
fn snapshot_file(
    seq: u64,
    map: &QiUrlMap,
    origins: &HashMap<PageKey, HttpRequest>,
    cursor: &CursorRecord,
) -> Vec<u8> {
    let mut origins: Vec<OriginRecord> = origins
        .keys()
        .map(|page| OriginRecord { page: page.clone(), admitted_at: 0 })
        .collect();
    origins.sort_by(|a, b| a.page.cmp(&b.page));
    let payload = through_the_tree(&SnapshotDoc {
        map: map.all(),
        origins,
        cursor: cursor.clone(),
    });
    let mut file = b"CPSNP\0\x01\x00".to_vec();
    file.extend_from_slice(&seq.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    file.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
    file.extend_from_slice(payload.as_bytes());
    file
}

/// A site whose text needs every kind of escape, with origins inserted out
/// of page order.
fn site() -> (QiUrlMap, Vec<(PageKey, HttpRequest)>) {
    let map = QiUrlMap::new();
    let mut origins = Vec::new();
    for (i, odd) in [
        "plain",
        "quo\"te",
        "back\\slash",
        "tab\tnew\nline",
        "é😀\u{2028}",
        "\u{1}",
    ]
    .into_iter()
    .enumerate()
    .rev()
    {
        let page = PageKey::raw(format!("shop/item?g:name={odd}&g:sku={i}"));
        map.insert(
            &format!("SELECT * FROM item WHERE name = '{odd}'"),
            page.clone(),
            "item".into(),
        );
        map.insert(
            &format!("SELECT COUNT(*) FROM stock WHERE sku = {i}"),
            page.clone(),
            odd.into(),
        );
        let request = HttpRequest::post("shop", "/item", &[("name", odd), ("sku", &i.to_string())])
            .with_cookie("session", odd);
        origins.push((page, request));
    }
    origins.push((
        PageKey::raw("shop/top?"),
        HttpRequest::get("shop", "/top", &[]),
    ));
    (map, origins)
}

/// No origins, of the type a bare-request caller passes.
const NO_ORIGINS: &[(PageKey, HttpRequest)] = &[];

/// What `Durability::load` reads back for origins journaled as bare
/// requests: no admission stamp.
fn unstamped(origins: &HashMap<PageKey, HttpRequest>) -> HashMap<PageKey, u64> {
    origins.keys().map(|page| (page.clone(), 0)).collect()
}

fn cursor(consumed: u64) -> CursorRecord {
    CursorRecord {
        consumed,
        sync_seq: consumed / 10,
        watermarks: vec![("item".into(), consumed - 1), ("st\"ock".into(), 0)],
        bus_seq: u64::MAX,
        edge_marks: vec![("edge-0".into(), 4, 99), ("edge-\n".into(), 0, u64::MAX)],
    }
}

#[test]
fn wal_and_snapshot_files_are_what_the_parent_wrote() {
    let dir = temp_dir();
    let (map, admitted) = site();
    let origins_full: HashMap<PageKey, HttpRequest> = admitted.iter().cloned().collect();
    let mut d = Durability::open(&dir, 2).unwrap();

    // First sync: every row, every origin, the cursor — one batch.
    let out = d.persist_sync(&map, &admitted, &origins_full, cursor(10));
    assert_eq!((out.errors, out.checkpointed), (0, false));
    assert_eq!(out.appended as usize, map.len() + admitted.len() + 1);
    let mut expected = WAL_HEADER.to_vec();
    for entry in map.all() {
        frame(&mut expected, &DurableRecord::MapEntry(entry));
    }
    for (page, _) in &admitted {
        let origin = OriginRecord { page: page.clone(), admitted_at: 0 };
        frame(&mut expected, &DurableRecord::Origin(origin));
    }
    frame(&mut expected, &DurableRecord::Cursor(cursor(10)));
    assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), expected);
    assert_eq!(expected.len(), WAL_BYTES);
    assert_eq!(
        d.wal_stats().bytes as usize,
        expected.len() - WAL_HEADER.len()
    );
    assert_eq!(d.wal_stats().syncs, 1);

    // Second sync: one new row, no admissions, then the checkpoint.
    map.insert("SELECT * FROM top WHERE rank = 1", PageKey::raw("shop/top?"), "top".into());
    let out = d.persist_sync(&map, NO_ORIGINS, &origins_full, cursor(20));
    assert_eq!((out.errors, out.appended, out.checkpointed), (0, 2, true));
    let expected = snapshot_file(1, &map, &origins_full, &cursor(20));
    assert_eq!(std::fs::read(snapshot_path(&dir)).unwrap(), expected);
    assert_eq!(expected.len(), SNAPSHOT_BYTES);
    assert_eq!(out.checkpoint_bytes as usize, expected.len() - 24);
    assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), WAL_HEADER);
    assert!(!dir.join("snapshot.tmp").exists());
    drop(d);

    let state = Durability::load(&dir).unwrap();
    assert_eq!(state.map_entries, map.all());
    assert_eq!(state.origins, unstamped(&origins_full));
    assert_eq!(state.cursor, cursor(20));
    assert_eq!(state.snapshot_seq, Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_state_checkpoints_to_the_parents_bytes() {
    let dir = temp_dir();
    let (map, origins) = (QiUrlMap::new(), HashMap::new());
    let mut d = Durability::open(&dir, 1).unwrap();
    let out = d.persist_sync(&map, NO_ORIGINS, &origins, CursorRecord::default());
    assert_eq!((out.errors, out.checkpointed), (0, true));
    assert_eq!(
        std::fs::read(snapshot_path(&dir)).unwrap(),
        snapshot_file(1, &map, &origins, &CursorRecord::default())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sync's frames reach the file in one write, so a crash can cut the batch
/// anywhere — or, dying between `append` and `sync`, lose all of it. Every
/// cut must recover as the window before (its pages are then gap-ejected on
/// recovery) or as the whole window; the cursor is the batch's last frame,
/// so it never arrives without the rows and origins it covers.
#[test]
fn a_torn_batch_never_recovers_a_cursor_ahead_of_its_rows() {
    let dir = temp_dir();
    let (map, admitted) = site();
    let origins_full: HashMap<PageKey, HttpRequest> = admitted.iter().cloned().collect();
    let mut d = Durability::open(&dir, 100).unwrap();
    d.persist_sync(&map, NO_ORIGINS, &HashMap::<PageKey, HttpRequest>::new(), cursor(10));
    let rows_before = map.len();
    let synced = std::fs::read(wal_path(&dir)).unwrap().len();
    // The second window: new rows, its admissions, its cursor.
    map.insert("SELECT * FROM top WHERE rank = 2", PageKey::raw("shop/top?"), "top".into());
    map.insert("SELECT * FROM top WHERE rank = 3", PageKey::raw("shop/top?"), "top".into());
    let out = d.persist_sync(&map, &admitted, &origins_full, cursor(20));
    assert_eq!(out.errors, 0);
    drop(d);
    let full = std::fs::read(wal_path(&dir)).unwrap();

    let crashed = temp_dir();
    for cut in synced..=full.len() {
        std::fs::write(wal_path(&crashed), &full[..cut]).unwrap();
        let state = Durability::load(&crashed).unwrap();
        if cut == full.len() {
            assert_eq!(state.cursor, cursor(20));
        }
        if state.cursor.consumed == 20 {
            assert_eq!(state.map_entries, map.all(), "cut at {cut}");
            assert_eq!(state.origins, unstamped(&origins_full), "cut at {cut}");
        } else {
            assert_eq!(state.cursor, cursor(10), "cut at {cut}");
            assert!(state.map_entries.len() >= rows_before, "cut at {cut}");
            // Origins count only with the cursor that closes their batch.
            assert!(state.origins.is_empty(), "cut at {cut}");
        }
        // The journal stays appendable: the torn tail is cut off on open.
        let mut d = Durability::open(&crashed, 100).unwrap();
        d.set_map_cursor(map.next_id());
        assert_eq!(
            d.persist_sync(&map, NO_ORIGINS, &origins_full, cursor(30)).errors,
            0
        );
        drop(d);
        assert_eq!(
            Durability::load(&crashed).unwrap().cursor,
            cursor(30),
            "cut at {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}

/// A checkpoint that fails (here: its temp file cannot be created) is
/// counted, and what was durable before stays loadable.
#[test]
fn a_failed_checkpoint_is_counted_and_leaves_the_journal_loadable() {
    let dir = temp_dir();
    let (map, admitted) = site();
    let origins_full: HashMap<PageKey, HttpRequest> = admitted.iter().cloned().collect();
    let mut d = Durability::open(&dir, 2).unwrap();
    assert_eq!(
        d.persist_sync(&map, &admitted, &origins_full, cursor(10))
            .errors,
        0
    );
    // `snapshot.tmp` as a directory: the writer cannot create its file.
    std::fs::create_dir(dir.join("snapshot.tmp")).unwrap();
    let out = d.persist_sync(&map, NO_ORIGINS, &origins_full, cursor(20));
    assert_eq!(
        (out.errors, out.checkpointed, out.checkpoint_bytes),
        (1, false, 0)
    );
    assert!(!snapshot_path(&dir).exists());
    let state = Durability::load(&dir).unwrap();
    assert_eq!(
        state.cursor,
        cursor(20),
        "the WAL batch went out before the checkpoint"
    );
    assert_eq!(state.origins, unstamped(&origins_full));
    // The next pass tries again, and succeeds once the obstacle is gone.
    std::fs::remove_dir(dir.join("snapshot.tmp")).unwrap();
    let out = d.persist_sync(&map, NO_ORIGINS, &origins_full, cursor(30));
    assert_eq!((out.errors, out.checkpointed), (0, true));
    assert_eq!(Durability::load(&dir).unwrap().cursor, cursor(30));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An admission's stamp is written as `OriginRecord`'s `admitted_at`, in the
/// WAL and the snapshot alike, and read back with its page.
#[test]
fn stamped_origins_are_what_the_derive_writes() {
    let dir = temp_dir();
    let (map, admitted) = site();
    let stamped: Vec<(PageKey, u64)> = (admitted.into_iter().zip(1..))
        .map(|((page, _), admitted_at)| (page, admitted_at))
        .collect();
    let full: HashMap<PageKey, u64> = stamped.iter().cloned().collect();
    let mut d = Durability::open(&dir, 2).unwrap();
    d.persist_sync(&map, &stamped, &full, cursor(10));
    let mut expected = WAL_HEADER.to_vec();
    for entry in map.all() {
        frame(&mut expected, &DurableRecord::MapEntry(entry));
    }
    for (page, admitted_at) in &stamped {
        let origin = OriginRecord { page: page.clone(), admitted_at: *admitted_at };
        frame(&mut expected, &DurableRecord::Origin(origin));
    }
    frame(&mut expected, &DurableRecord::Cursor(cursor(10)));
    assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), expected);
    assert_eq!(Durability::load(&dir).unwrap().origins, full);

    // The checkpoint's snapshot carries the stamps too.
    d.persist_sync(&map, NO_ORIGINS, &full, cursor(20));
    drop(d);
    let state = Durability::load(&dir).unwrap();
    assert_eq!(state.snapshot_seq, Some(1));
    assert_eq!(state.origins, full);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn assert_round_trips<T: Serialize + Deserialize + PartialEq + Debug>(value: &T) {
    let text = serde_json::to_string(value).unwrap();
    assert_eq!(text, through_the_tree(value));
    assert_eq!(&serde_json::from_str::<T>(&text).unwrap(), value, "{text}");
}

fn hostile_string() -> impl Strategy<Value = String> {
    let alphabet: Vec<char> = vec![
        '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', ' ', 'a', '=', '&', 'é', '\u{2028}', '😀',
    ];
    prop::collection::vec(prop::sample::select(alphabet), 0..16)
        .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// What goes into a WAL frame or down the socket bus comes back equal.
    #[test]
    fn journal_records_and_bus_messages_round_trip(
        (id, sql, page, servlet) in (any::<u64>(), hostile_string(), hostile_string(), hostile_string()),
        (consumed, sync_seq, bus_seq) in (any::<u64>(), any::<u64>(), any::<u64>()),
        watermarks in prop::collection::vec((hostile_string(), any::<u64>()), 0..3),
        edge_marks in prop::collection::vec((hostile_string(), any::<u64>(), any::<u64>()), 0..3),
        pages in prop::collection::vec(hostile_string(), 0..4),
        admitted_at in prop_oneof![Just(0u64), any::<u64>()],
    ) {
        let page = PageKey::raw(page);
        let entry = cacheportal::sniffer::QiUrlEntry { id, sql, page_key: page.clone(), servlet: servlet.into() };
        let cursor = CursorRecord { consumed, sync_seq, watermarks, bus_seq, edge_marks };
        assert_round_trips(&cursor);
        assert_round_trips(&DurableRecord::MapEntry(entry));
        assert_round_trips(&DurableRecord::Origin(OriginRecord { page, admitted_at }));
        assert_round_trips(&DurableRecord::Cursor(cursor));
        assert_round_trips(&EjectBatch {
            seq: bus_seq,
            sync_seq,
            ts: consumed,
            pages: pages.into_iter().map(PageKey::raw).collect(),
        });
        assert_round_trips(&Ack { applied_seq: bus_seq });
    }
}
