//! Crash-safe persistence of the portal's recoverable state.
//!
//! The portal's in-memory state splits into two halves. The *derivable*
//! half (page cache contents, maintained indexes, policy statistics) can
//! always be rebuilt or safely discarded. The *load-bearing* half cannot:
//!
//! * the sniffer's **QI/URL map** — losing a row means a cached page whose
//!   dependencies are unknown, i.e. a page that can silently go stale;
//! * each cached page's **admission stamp** — the logical time it entered
//!   the cache (recovery keeps a surviving page only if the journal holds
//!   that very stamp). The page's key is its origin: the freshness oracle
//!   regenerates the page from the request the key names;
//! * the invalidator's **sync cursor** — the last-processed LSN (claiming
//!   too much means unprocessed updates are skipped: staleness), the sync
//!   ordinal, and per-relation delta-group watermarks.
//!
//! This module journals that half through `cacheportal-durable`'s
//! checksummed WAL with periodic snapshot compaction. The ordering
//! invariant that keeps crashes sound lives in `CachePortal::sync_point`:
//! **ejects are delivered before the cursor is made durable, and the
//! cursor is durable before the update log is truncated.** A crash in any
//! window therefore re-processes (and re-ejects) a suffix of updates —
//! pure over-invalidation, never staleness.
//!
//! Record and snapshot payloads are JSON (versioned by the durable layer's
//! frame format); WAL replay is idempotent — map rows deduplicate, origin
//! rows are last-write-wins, and the cursor takes the maximum. An origin
//! counts only once the cursor that closes its batch has been read: the
//! origins of a torn batch prove nothing.
//!
//! The write side never holds a second copy of what it journals: it reads
//! map rows in place under the map's lock — a row's text, which the map does
//! not keep, is its query type's text, rendered once per journal and kept
//! by type (at most 64), with the row's values escaped in between — and
//! origins as key and stamp, encodes one record at a time into one reused
//! `String`, and hands each to
//! the WAL's batch or the snapshot's stream. [`DurableRecord`],
//! [`OriginRecord`] and [`SnapshotDoc`] are what [`Durability::load`]
//! deserialises into; the writer spells the text their derived `Serialize`
//! would, and `tests/durable_write_path.rs` holds it to that byte for byte.

use cacheportal_durable::SnapshotWriter;
use cacheportal_sniffer::{QiUrlEntry, QiUrlMap, TemplateTexts};
use cacheportal_web::{HttpRequest, PageKey};
use serde::Serialize as _;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A cached page's origin: its key, which names the request that
/// regenerates it, and when the page was admitted. An older record also
/// carries that request; it is read past.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OriginRecord {
    /// The page's cache key.
    pub page: PageKey,
    /// The logical time the page entered the cache, its
    /// [`PageCache::admitted_at`](cacheportal_cache::PageCache::admitted_at);
    /// 0 — no key — for a record written without one (a bare request, or a
    /// journal from before the stamp), which proves no admission.
    #[serde(skip_if = "self.admitted_at == 0")]
    pub admitted_at: u64,
}

/// What the journal writes of a page's origin besides its key: when the
/// page entered the cache (0: not known). An admission stamp (`u64`)
/// journals itself; a bare [`HttpRequest`] journals no stamp, so recovery
/// ejects its page whatever the cache holds.
pub trait Origin {
    /// The admission stamp.
    fn admitted_at(&self) -> u64;
}

impl Origin for u64 {
    fn admitted_at(&self) -> u64 {
        *self
    }
}

impl Origin for HttpRequest {
    fn admitted_at(&self) -> u64 {
        0
    }
}

/// The invalidator's durable position in the update stream.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CursorRecord {
    /// One past the last update-log LSN fully processed (ejects delivered).
    pub consumed: u64,
    /// Sync-point ordinal of the portal (continues across restarts; also
    /// the poll-flap fault epoch, so burst phase survives a crash).
    pub sync_seq: u64,
    /// Per-relation high-water marks: the largest LSN consumed for each
    /// table, from the last sync point's delta groups.
    pub watermarks: Vec<(String, u64)>,
    /// Invalidation-bus sequence frontier: the next eject-batch seq the
    /// recovered bus will assign (monotone across restarts).
    pub bus_seq: u64,
    /// Per-edge bus delivery watermarks: `(edge, acked batch seq, acked
    /// timestamp)`. A recovered invalidator restores these so a rejoining
    /// edge flushes exactly the pages admitted past its last acked mark —
    /// never re-opening a staleness window.
    pub edge_marks: Vec<(String, u64, u64)>,
}

/// One WAL frame's payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DurableRecord {
    /// A new QI/URL map row.
    MapEntry(QiUrlEntry),
    /// A page admission's stamp.
    Origin(OriginRecord),
    /// The cursor after a completed sync point.
    Cursor(CursorRecord),
}

/// Snapshot payload: the full recoverable state at checkpoint time.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct SnapshotDoc {
    /// Every QI/URL map row.
    pub map: Vec<QiUrlEntry>,
    /// Every live cached page's origin.
    pub origins: Vec<OriginRecord>,
    /// The cursor as of the checkpoint.
    pub cursor: CursorRecord,
}

/// State reconstructed from disk by [`Durability::load`].
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// QI/URL rows, snapshot-then-WAL order (duplicates possible — the
    /// map's insert dedups).
    pub map_entries: Vec<QiUrlEntry>,
    /// Admission stamps, last-write-wins per page; only those whose
    /// batch's cursor reached the disk.
    pub origins: HashMap<PageKey, u64>,
    /// The highest durable cursor.
    pub cursor: CursorRecord,
    /// Snapshot sequence number found, if any.
    pub snapshot_seq: Option<u64>,
    /// WAL frames replayed past the snapshot.
    pub wal_records: u64,
    /// Torn/corrupt tail bytes truncated during replay.
    pub torn_bytes: u64,
}

/// Counters one persist/checkpoint pass produced (folded into metrics by
/// the caller; this module never touches the registry directly).
#[derive(Debug, Default, Clone, Copy)]
pub struct PersistOutcome {
    /// WAL frames appended.
    pub appended: u64,
    /// Whether a checkpoint (snapshot + WAL reset) ran.
    pub checkpointed: bool,
    /// I/O errors swallowed (state possibly not durable — the caller must
    /// mark health).
    pub errors: u64,
    /// Wall-clock microseconds of the whole pass, checkpoint included.
    pub persist_micros: u64,
    /// Wall-clock microseconds of the checkpoint alone (0 without one).
    pub checkpoint_micros: u64,
    /// Payload bytes of the snapshot the checkpoint wrote (0 without one).
    pub checkpoint_bytes: u64,
}

pub(crate) fn micros_since(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// `OriginRecord { page, admitted_at }` as its derived `Serialize` writes
/// it, from the parts.
fn write_origin(out: &mut String, page: &PageKey, admitted_at: u64) {
    out.push_str("{\"page\":");
    page.write_json(out);
    if admitted_at != 0 {
        out.push_str(",\"admitted_at\":");
        admitted_at.write_json(out);
    }
    out.push('}');
}

/// The live durability pipeline owned by a portal.
pub struct Durability {
    dir: PathBuf,
    wal: cacheportal_durable::Wal,
    checkpoint_interval: u64,
    syncs_since_checkpoint: u64,
    /// QI/URL map rows with id below this are already durable.
    map_cursor: u64,
    /// Snapshot sequence for the next checkpoint.
    next_snapshot_seq: u64,
    /// The record being encoded; every record of every pass reuses it.
    record: String,
    /// The text of the query types whose rows this journal has written.
    templates: TemplateTexts,
}

impl Durability {
    /// Open (or create) the durable directory and its WAL, continuing any
    /// existing journal. `checkpoint_interval` is the number of persisted
    /// sync points between snapshot compactions (minimum 1).
    pub fn open(dir: &Path, checkpoint_interval: u64) -> io::Result<Durability> {
        std::fs::create_dir_all(dir)?;
        let wal = cacheportal_durable::Wal::open(&cacheportal_durable::wal_path(dir))?;
        let next_snapshot_seq = cacheportal_durable::Checkpoint::read(dir)?
            .map(|(seq, _)| seq + 1)
            .unwrap_or(1);
        Ok(Durability {
            dir: dir.to_path_buf(),
            wal,
            checkpoint_interval: checkpoint_interval.max(1),
            syncs_since_checkpoint: 0,
            map_cursor: 0,
            next_snapshot_seq,
            record: String::new(),
            templates: TemplateTexts::default(),
        })
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Raw WAL statistics (appends/bytes/syncs/resets) for metrics export.
    pub fn wal_stats(&self) -> cacheportal_durable::WalStats {
        self.wal.stats()
    }

    /// Mark every map row below `cursor` as already durable (recovery sets
    /// this to the recovered map's high id after its compacting checkpoint).
    pub fn set_map_cursor(&mut self, cursor: u64) {
        self.map_cursor = cursor;
    }

    /// Replay the durable directory into a [`RecoveredState`]. Missing
    /// files yield the empty state; torn WAL tails are truncated by the
    /// durable layer and reported, never mis-replayed. Unparseable JSON in
    /// an intact frame is an error — checksums passed, so it indicates a
    /// version mismatch rather than a crash artifact.
    pub fn load(dir: &Path) -> io::Result<RecoveredState> {
        let recovery = cacheportal_durable::Recovery::replay(dir)?;
        let mut state = RecoveredState {
            snapshot_seq: recovery.snapshot_seq,
            wal_records: recovery.wal_records.len() as u64,
            torn_bytes: recovery.wal_torn_bytes,
            ..RecoveredState::default()
        };
        let stamp = |o: OriginRecord| (o.page, o.admitted_at);
        if let Some(snapshot) = &recovery.snapshot {
            let text = std::str::from_utf8(snapshot)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let doc: SnapshotDoc = serde_json::from_str(text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            state.map_entries = doc.map;
            state.origins.extend(doc.origins.into_iter().map(stamp));
            state.cursor = doc.cursor;
        }
        // A batch's origins wait for the cursor that closes it.
        let mut batch = Vec::new();
        for frame in &recovery.wal_records {
            let text = std::str::from_utf8(frame)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let record: DurableRecord = serde_json::from_str(text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            match record {
                DurableRecord::MapEntry(e) => state.map_entries.push(e),
                DurableRecord::Origin(o) => batch.push(o),
                DurableRecord::Cursor(c) => {
                    state.origins.extend(batch.drain(..).map(stamp));
                    // Idempotent replay: a crash between snapshot rename
                    // and WAL reset can leave older cursors behind — take
                    // the maximum, never step backwards.
                    if c.consumed >= state.cursor.consumed {
                        state.cursor = c;
                    }
                }
            }
        }
        Ok(state)
    }

    /// Persist one completed sync point: new QI/URL rows since the durable
    /// map cursor, the origins of the admissions since the last durable
    /// batch, and the new cursor —
    /// one WAL batch, written through 64 KiB at a time and fsynced once. The
    /// cursor goes last, so a torn batch never recovers a cursor ahead of
    /// its rows, and a batch one of whose writes failed is dropped whole:
    /// the appends after it are refused (each counted) and so is the sync.
    /// Runs a checkpoint (full snapshot + WAL reset) every
    /// `checkpoint_interval` persisted syncs. I/O errors are counted, not
    /// propagated: the portal stays available, the caller flags health.
    pub fn persist_sync<N: Origin, F: Origin>(
        &mut self,
        map: &QiUrlMap,
        new_origins: &[(PageKey, N)],
        origins_full: &HashMap<PageKey, F>,
        cursor: CursorRecord,
    ) -> PersistOutcome {
        let started = Instant::now();
        let mut out = PersistOutcome::default();
        let Durability { wal, record, templates, .. } = self;
        // One `DurableRecord`, spelled `{"<variant>":<payload>}`.
        let mut append = |variant: &str, payload: &mut dyn FnMut(&mut String)| {
            record.clear();
            record.push_str("{\"");
            record.push_str(variant);
            record.push_str("\":");
            payload(record);
            record.push('}');
            match wal.append(record.as_bytes()) {
                Ok(()) => out.appended += 1,
                Err(_) => out.errors += 1,
            }
        };
        self.map_cursor = map.visit_since(self.map_cursor, |row| {
            append("MapEntry", &mut |out| row.write_json(out, templates));
        });
        for (page, origin) in new_origins {
            append("Origin", &mut |out| write_origin(out, page, origin.admitted_at()));
        }
        append("Cursor", &mut |out| cursor.write_json(out));
        if self.wal.sync().is_err() {
            out.errors += 1;
        }

        self.syncs_since_checkpoint += 1;
        if self.syncs_since_checkpoint >= self.checkpoint_interval {
            let checkpoint_started = Instant::now();
            match self.checkpoint(map, origins_full, &cursor) {
                Ok(bytes) => {
                    out.checkpointed = true;
                    out.checkpoint_bytes = bytes;
                    out.checkpoint_micros = micros_since(checkpoint_started);
                }
                Err(_) => out.errors += 1,
            }
        }
        out.persist_micros = micros_since(started);
        out
    }

    /// Stream a full snapshot — `SnapshotDoc`'s text: every map row, every
    /// origin in page order (hash order would not repeat), the cursor — and
    /// reset the WAL; returns the snapshot's payload bytes. The map stays
    /// locked while its rows go by. A crash between the snapshot rename and
    /// the WAL reset leaves snapshot + stale WAL tail: replay re-applies the
    /// tail on top, which is why records must be idempotent.
    pub fn checkpoint<O: Origin>(
        &mut self,
        map: &QiUrlMap,
        origins_full: &HashMap<PageKey, O>,
        cursor: &CursorRecord,
    ) -> io::Result<u64> {
        let mut snapshot = SnapshotWriter::create(&self.dir, self.next_snapshot_seq)?;
        let Durability { record, templates, .. } = self;
        // The map's visit cannot stop early: once a write fails, the rows
        // left are passed over.
        let mut written = snapshot.write(b"{\"map\":[");
        let mut separator = "";
        map.visit_since(0, |row| {
            if written.is_ok() {
                record.clear();
                record.push_str(separator);
                separator = ",";
                row.write_json(record, templates);
                written = snapshot.write(record.as_bytes());
            }
        });
        written?;
        snapshot.write(b"],\"origins\":[")?;
        // Page order costs one pointer per origin: the only thing here that
        // grows with the site.
        let mut pages: Vec<&PageKey> = origins_full.keys().collect();
        pages.sort_unstable();
        let mut separator = "";
        for page in pages {
            record.clear();
            record.push_str(separator);
            separator = ",";
            write_origin(record, page, origins_full[page].admitted_at());
            snapshot.write(record.as_bytes())?;
        }
        record.clear();
        record.push_str("],\"cursor\":");
        cursor.write_json(record);
        record.push('}');
        snapshot.write(record.as_bytes())?;
        let bytes = snapshot.finish()?;
        self.next_snapshot_seq += 1;
        self.wal.reset()?;
        self.syncs_since_checkpoint = 0;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cp-core-durability-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry_map() -> QiUrlMap {
        let map = QiUrlMap::new();
        map.insert("SELECT a FROM t WHERE a = 1", PageKey::raw("p1"), "s".into());
        map.insert("SELECT a FROM t WHERE a = 2", PageKey::raw("p2"), "s".into());
        map
    }

    #[test]
    fn persist_then_load_round_trips() {
        let dir = temp_dir();
        let map = entry_map();
        let req = HttpRequest::get("h", "/s", &[("k", "v")]);
        let origins_full: HashMap<PageKey, HttpRequest> =
            [(PageKey::raw("p1"), req.clone())].into_iter().collect();
        let mut d = Durability::open(&dir, 100).unwrap();
        let out = d.persist_sync(
            &map,
            &[(PageKey::raw("p1"), req.clone())],
            &origins_full,
            CursorRecord {
                consumed: 7,
                sync_seq: 3,
                watermarks: vec![("car".into(), 6)],
                bus_seq: 5,
                edge_marks: vec![("edge-0".into(), 4, 99)],
            },
        );
        assert_eq!(out.errors, 0);
        assert!(!out.checkpointed);
        assert_eq!(out.appended, 4, "2 map rows + 1 origin + 1 cursor");
        drop(d);

        let state = Durability::load(&dir).unwrap();
        assert_eq!(state.map_entries.len(), 2);
        assert_eq!(state.origins[&PageKey::raw("p1")], 0, "a bare request has no stamp");
        assert_eq!(state.cursor.consumed, 7);
        assert_eq!(state.cursor.sync_seq, 3);
        assert_eq!(state.cursor.watermarks, vec![("car".to_string(), 6)]);
        assert_eq!(state.cursor.bus_seq, 5);
        assert_eq!(state.cursor.edge_marks, vec![("edge-0".to_string(), 4, 99)]);
        assert_eq!(state.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rows_of_hostile_types_recover_as_written_from_the_wal_and_the_snapshot() {
        use cacheportal_db::sql::parser::parse_select;
        use cacheportal_db::Value;
        use cacheportal_sniffer::TypedInstance;
        use std::sync::Arc;
        // Literals that hold a marker's spelling, quotes, a backslash, a
        // newline and a tab; values negative, fractional, NULL and text.
        let types = [
            "SELECT 'x$1''\"\\\n\t' AS s, a FROM t WHERE a = $1 AND b = $2",
            "SELECT * FROM u WHERE c = '$1' AND d < $1 ORDER BY d DESC LIMIT 3",
        ]
        .map(|sql| Arc::new(parse_select(sql).unwrap()));
        let values = [
            Value::Int(7),
            Value::Float(2.5),
            Value::Null,
            Value::Str("o'\"\\\n\t$1é".into()),
        ];
        let map = QiUrlMap::new();
        let servlet: Arc<str> = "s".into();
        for (i, v) in values.iter().enumerate() {
            let page = PageKey::raw(format!("p{i}"));
            for (template, params) in [
                (&types[0], [v.clone(), Value::Int(-(i as i64))].into()),
                (&types[1], [v.clone()].into()),
            ] {
                let typed = TypedInstance { template: template.clone(), params };
                assert!(map.writer().insert_typed(&typed, &page, &servlet));
            }
        }
        let cursor = CursorRecord { consumed: 1, ..CursorRecord::default() };
        let none: &[(PageKey, HttpRequest)] = &[];
        let origins: HashMap<PageKey, HttpRequest> = HashMap::new();
        let written = map.all();
        for checkpoint_interval in [u64::MAX, 1] {
            let dir = temp_dir();
            let mut d = Durability::open(&dir, checkpoint_interval).unwrap();
            let out = d.persist_sync(&map, none, &origins, cursor.clone());
            assert_eq!((out.errors, out.checkpointed), (0, checkpoint_interval == 1));
            drop(d);
            let state = Durability::load(&dir).unwrap();
            assert_eq!(state.snapshot_seq.is_some(), checkpoint_interval == 1);
            assert_eq!(state.map_entries, written);
            // The text types again, as the rows it was written from.
            let recovered = QiUrlMap::new();
            assert!(recovered.load(&state.map_entries).is_empty());
            assert_eq!(recovered.all(), written);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpoint_compacts_and_replay_is_idempotent() {
        let dir = temp_dir();
        let map = entry_map();
        let req = HttpRequest::get("h", "/s", &[]);
        let origins_full: HashMap<PageKey, HttpRequest> =
            [(PageKey::raw("p1"), req.clone())].into_iter().collect();
        let mut d = Durability::open(&dir, 2).unwrap();
        for sync in 0..5u64 {
            let out = d.persist_sync(
                &map,
                &[(PageKey::raw("p1"), req.clone())],
                &origins_full,
                CursorRecord {
                    consumed: sync + 1,
                    sync_seq: sync,
                    watermarks: vec![],
                    ..CursorRecord::default()
                },
            );
            assert_eq!(out.errors, 0);
            assert_eq!(out.checkpointed, sync % 2 == 1, "every 2nd sync snapshots");
        }
        drop(d);
        let state = Durability::load(&dir).unwrap();
        // Duplicate origins/map rows collapsed; cursor is the latest.
        assert_eq!(state.cursor.consumed, 5);
        assert_eq!(state.origins.len(), 1);
        assert!(state.snapshot_seq.is_some());
        // Map rows may repeat across snapshot + WAL — dedup is the map's
        // job; ensure both distinct rows survived.
        let sqls: std::collections::HashSet<&str> =
            state.map_entries.iter().map(|e| e.sql.as_str()).collect();
        assert_eq!(sqls.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_of_empty_dir_is_empty_state() {
        let dir = temp_dir();
        let state = Durability::load(&dir).unwrap();
        assert_eq!(state.map_entries.len(), 0);
        assert_eq!(state.cursor, CursorRecord::default());
        assert!(state.snapshot_seq.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_the_journal() {
        let dir = temp_dir();
        let map = entry_map();
        let origins_full: HashMap<PageKey, HttpRequest> = HashMap::new();
        let mut d = Durability::open(&dir, 100).unwrap();
        d.persist_sync(
            &map,
            &[] as &[(PageKey, HttpRequest)],
            &origins_full,
            CursorRecord { consumed: 1, sync_seq: 0, ..CursorRecord::default() },
        );
        drop(d);
        // A second incarnation appends to the same WAL.
        let mut d = Durability::open(&dir, 100).unwrap();
        d.set_map_cursor(2);
        d.persist_sync(
            &map,
            &[] as &[(PageKey, HttpRequest)],
            &origins_full,
            CursorRecord { consumed: 9, sync_seq: 1, ..CursorRecord::default() },
        );
        drop(d);
        let state = Durability::load(&dir).unwrap();
        assert_eq!(state.cursor.consumed, 9);
        assert_eq!(state.map_entries.len(), 2, "second pass skipped durable rows");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
