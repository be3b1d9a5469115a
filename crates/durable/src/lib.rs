//! Crash-safe persistence primitives for CachePortal: an append-only,
//! checksummed, fsync-batched write-ahead log plus atomic snapshot
//! checkpoints, with a versioned on-disk format.
//!
//! The portal persists two things across restarts (paper §3–§4: the
//! sniffer's URL↔QI map and the invalidator's position in the DBMS update
//! log). Both are small and append-mostly, so the design is deliberately
//! simple and auditable:
//!
//! * **WAL** (`wal.log`): an 8-byte header (`CPWAL\0` magic + `u16`
//!   version) followed by frames `[len: u32 LE][crc32: u32 LE][payload]`.
//!   Appends are framed into one buffer the log keeps; [`Wal::sync`] at
//!   each durability point hands the whole batch to the file in one write
//!   and fsyncs it. Nothing is promised before that fsync, so holding the
//!   frames in memory until then loses nothing a crash could not already
//!   take. A torn tail — a partial frame from a crash mid-write — is
//!   detected by length/checksum and **truncated**, never replayed.
//! * **Snapshot** (`snapshot.bin`): the full serialized state, streamed
//!   through [`SnapshotWriter`] to a temp file, fsynced, then atomically
//!   renamed over the previous snapshot (and the directory fsynced).
//!   Header: `CPSNP\0` magic, `u16` version, `u64` sequence number, `u32`
//!   payload length, `u32` crc32 — the last two patched in once the
//!   payload has gone by.
//!
//! Recovery ([`Recovery::replay`]) loads the latest snapshot (if any) and
//! then every complete WAL frame. Because a crash can land *between* the
//! snapshot rename and the WAL reset, replay may surface WAL records that
//! are already folded into the snapshot — callers must apply records
//! idempotently (the portal's map inserts are deduplicated and its cursor
//! records take the maximum).

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// On-disk format version for the WAL. Bump on incompatible changes.
pub const WAL_VERSION: u16 = 1;
/// On-disk format version for snapshots. Bump on incompatible changes.
pub const SNAPSHOT_VERSION: u16 = 1;

const WAL_MAGIC: &[u8; 6] = b"CPWAL\0";
const SNAP_MAGIC: &[u8; 6] = b"CPSNP\0";
const WAL_HEADER_LEN: u64 = 8;
const FRAME_HEADER_LEN: u64 = 8;
const SNAP_HEADER_LEN: usize = 24;
/// Offset of the snapshot header's `[len: u32][crc32: u32]` pair.
const SNAP_LEN_OFFSET: u64 = 16;
/// Upper bound on a single frame: [`Wal::append`] refuses a larger payload,
/// and replay treats a larger length field as corruption.
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;
/// The snapshot stream's file buffer.
const SNAP_BUFFER_LEN: usize = 64 * 1024;
/// Capacity the WAL's batch buffer keeps from one sync to the next.
const BATCH_KEEP_LEN: usize = 64 * 1024;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial) of a byte stream fed in pieces: the
/// checksum used by every frame and snapshot in this crate.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(0xFFFF_FFFF)
    }
}

impl Crc32 {
    /// Fold the next piece of the stream in.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// [`Crc32`] of one slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.finish()
}

/// Path of the WAL inside a durability directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// Path of the current snapshot inside a durability directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

/// Where a snapshot is written before it is renamed into place.
fn snapshot_tmp_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.tmp")
}

/// Plain accounting the embedding layer exports as `durable.*` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub appends: u64,
    /// Payload + frame-header bytes written since open.
    pub bytes: u64,
    /// Explicit fsync batches issued.
    pub syncs: u64,
    /// Times the log was reset after a snapshot.
    pub resets: u64,
}

/// Result of scanning a WAL file: every complete record, the byte length of
/// the valid prefix, and how many torn-tail bytes follow it.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Payloads of all complete, checksum-valid frames, in append order.
    pub records: Vec<Vec<u8>>,
    /// Length in bytes of the valid prefix (header + complete frames).
    pub valid_len: u64,
    /// Bytes past the valid prefix (partial frame or failed checksum).
    pub torn_bytes: u64,
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A write the on-disk format has no way to represent.
fn oversized(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Scan a WAL file without modifying it. A missing file is an empty log.
///
/// Torn tails (partial header, partial frame, checksum mismatch, or an
/// implausible length) terminate the scan: everything before them is
/// returned, everything after is reported as `torn_bytes`. A file whose
/// *complete* 8-byte header carries the wrong magic or an unknown version
/// is not a crash artifact and yields an error instead.
pub fn replay_wal(path: &Path) -> io::Result<WalReplay> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(e),
    };
    let mut out = WalReplay::default();
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        // Crash while writing the very first header: nothing durable yet.
        out.torn_bytes = bytes.len() as u64;
        return Ok(out);
    }
    if &bytes[..6] != WAL_MAGIC {
        return Err(corrupt("wal: bad magic"));
    }
    let version = u16::from_le_bytes([bytes[6], bytes[7]]);
    if version != WAL_VERSION {
        return Err(corrupt(format!("wal: unsupported version {version}")));
    }
    let mut off = WAL_HEADER_LEN as usize;
    out.valid_len = WAL_HEADER_LEN;
    while off < bytes.len() {
        if bytes.len() - off < FRAME_HEADER_LEN as usize {
            break; // torn frame header
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            break; // implausible length: treat as torn garbage
        }
        let start = off + FRAME_HEADER_LEN as usize;
        let end = match start.checked_add(len as usize) {
            Some(e) if e <= bytes.len() => e,
            _ => break, // torn payload
        };
        if crc32(&bytes[start..end]) != crc {
            break; // checksum failed: torn or corrupted, never replay
        }
        out.records.push(bytes[start..end].to_vec());
        off = end;
        out.valid_len = off as u64;
    }
    out.torn_bytes = bytes.len() as u64 - out.valid_len;
    Ok(out)
}

/// An open append-only log. Opening truncates any torn tail so appends
/// always continue from the last complete frame.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync_every: usize,
    /// Frames appended since the last sync; all of them are in `batch`.
    pending: usize,
    /// The pending frames, back to back; each sync empties and reuses it.
    batch: Vec<u8>,
    stats: WalStats,
}

impl Wal {
    /// Open (creating if absent) with explicit-only fsync batching: records
    /// accumulate until [`Wal::sync`] is called at the durability point.
    pub fn open(path: &Path) -> io::Result<Wal> {
        Wal::open_with(path, 0)
    }

    /// Open with an automatic fsync every `sync_every` appends
    /// (`0` = only on explicit [`Wal::sync`]).
    pub fn open_with(path: &Path, sync_every: usize) -> io::Result<Wal> {
        let replay = replay_wal(path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let disk_len = file.metadata()?.len();
        if replay.valid_len == 0 {
            // Empty or torn-header file: start fresh.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut header = [0u8; WAL_HEADER_LEN as usize];
            header[..6].copy_from_slice(WAL_MAGIC);
            header[6..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
        } else {
            if disk_len != replay.valid_len {
                file.set_len(replay.valid_len)?;
                file.sync_all()?;
            }
            file.seek(SeekFrom::Start(replay.valid_len))?;
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            sync_every,
            pending: 0,
            batch: Vec::new(),
            stats: WalStats::default(),
        })
    }

    /// Frame one record into the pending batch. It reaches the file, and
    /// becomes durable, at the next [`Wal::sync`] (or automatic batch flush
    /// when `sync_every > 0`). A payload above the frame limit is refused
    /// with `InvalidInput`: replay would read its length as a torn tail and
    /// drop it together with every frame behind it.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_FRAME_LEN)
            .ok_or_else(|| {
                oversized(format!(
                    "wal: a {}-byte record exceeds the {MAX_FRAME_LEN}-byte frame limit",
                    payload.len()
                ))
            })?;
        self.batch.extend_from_slice(&len.to_le_bytes());
        self.batch.extend_from_slice(&crc32(payload).to_le_bytes());
        self.batch.extend_from_slice(payload);
        self.stats.appends += 1;
        self.stats.bytes += FRAME_HEADER_LEN + u64::from(len);
        self.pending += 1;
        if self.sync_every > 0 && self.pending >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Write every pending frame with one `write_all` and make them durable
    /// with one fsync (the batch boundary). A failed write takes back
    /// whatever part of the batch reached the file — a torn frame in the
    /// middle of the log would hide every later one — and the batch is
    /// dropped: its window counts as not persisted.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending == 0 {
            return Ok(());
        }
        let end = self.file.stream_position()?;
        self.pending = 0;
        let written = self.file.write_all(&self.batch);
        self.batch.clear();
        // A site's first sync journals every page; the syncs after it, a
        // window's worth. Keep a window's worth of buffer.
        self.batch.shrink_to(BATCH_KEEP_LEN);
        if let Err(e) = written {
            let _ = self.file.set_len(end);
            let _ = self.file.seek(SeekFrom::Start(end));
            return Err(e);
        }
        self.file.sync_all()?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Truncate the log back to an empty header — called right after a
    /// snapshot makes every logged record, pending ones included, redundant.
    pub fn reset(&mut self) -> io::Result<()> {
        self.batch.clear();
        self.pending = 0;
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        self.file.sync_all()?;
        self.stats.resets += 1;
        Ok(())
    }

    /// Accounting since open.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The file this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A snapshot being written: the payload streams through a buffered temp
/// file, a piece at a time, and replaces `snapshot.bin` only in
/// [`SnapshotWriter::finish`]. Dropped or failed before that, it leaves
/// the temp file behind (the next writer truncates it) and the previous
/// snapshot untouched.
pub struct SnapshotWriter {
    dir: PathBuf,
    file: BufWriter<File>,
    /// Payload bytes so far. Counted wider than the header's `u32` so that a
    /// payload the format cannot hold is seen, not wrapped.
    len: u64,
    crc: Crc32,
}

impl SnapshotWriter {
    /// Start snapshot `seq` in `dir`: the temp file holds the header, its
    /// length and checksum still zero.
    pub fn create(dir: &Path, seq: u64) -> io::Result<SnapshotWriter> {
        fs::create_dir_all(dir)?;
        let mut file = BufWriter::with_capacity(SNAP_BUFFER_LEN, File::create(snapshot_tmp_path(dir))?);
        let mut header = [0u8; SNAP_HEADER_LEN];
        header[..6].copy_from_slice(SNAP_MAGIC);
        header[6..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&seq.to_le_bytes());
        file.write_all(&header)?;
        Ok(SnapshotWriter {
            dir: dir.to_path_buf(),
            file,
            len: 0,
            crc: Crc32::default(),
        })
    }

    /// Append the next piece of the payload.
    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.len += bytes.len() as u64;
        self.crc.update(bytes);
        self.file.write_all(bytes)
    }

    /// Patch length and checksum into the header, fsync the temp file,
    /// rename it over `snapshot.bin` and fsync the directory; returns the
    /// payload length. A crash at any point leaves either the old or the
    /// new snapshot intact. A payload of 4 GiB or more does not fit the
    /// header's length field and is refused with `InvalidInput`.
    pub fn finish(self) -> io::Result<u64> {
        let len = u32::try_from(self.len).map_err(|_| {
            oversized(format!(
                "snapshot: a {}-byte payload exceeds the format's u32 length field",
                self.len
            ))
        })?;
        let mut file = self.file.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.seek(SeekFrom::Start(SNAP_LEN_OFFSET))?;
        file.write_all(&len.to_le_bytes())?;
        file.write_all(&self.crc.finish().to_le_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(snapshot_tmp_path(&self.dir), snapshot_path(&self.dir))?;
        // Make the rename itself durable.
        File::open(&self.dir)?.sync_all()?;
        Ok(self.len)
    }
}

/// Atomic snapshot checkpoints.
pub struct Checkpoint;

impl Checkpoint {
    /// Durably replace the snapshot with `payload` ([`SnapshotWriter`], fed
    /// in one piece).
    pub fn write(dir: &Path, seq: u64, payload: &[u8]) -> io::Result<()> {
        let mut snapshot = SnapshotWriter::create(dir, seq)?;
        snapshot.write(payload)?;
        snapshot.finish().map(drop)
    }

    /// Load the current snapshot: `None` if absent, `Err` if present but
    /// failing magic/version/length/checksum validation (the atomic rename
    /// protocol means a damaged snapshot is disk corruption, not a torn
    /// write, so it is refused rather than silently dropped).
    pub fn read(dir: &Path) -> io::Result<Option<(u64, Vec<u8>)>> {
        let mut bytes = match fs::read(snapshot_path(dir)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        if bytes.len() < SNAP_HEADER_LEN {
            return Err(corrupt("snapshot: truncated header"));
        }
        if &bytes[..6] != SNAP_MAGIC {
            return Err(corrupt("snapshot: bad magic"));
        }
        let version = u16::from_le_bytes([bytes[6], bytes[7]]);
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(format!("snapshot: unsupported version {version}")));
        }
        let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        let payload = &bytes[SNAP_HEADER_LEN..];
        if payload.len() != len {
            return Err(corrupt("snapshot: length mismatch"));
        }
        if crc32(payload) != crc {
            return Err(corrupt("snapshot: checksum mismatch"));
        }
        // The file's buffer becomes the payload: no second copy.
        bytes.drain(..SNAP_HEADER_LEN);
        Ok(Some((seq, bytes)))
    }
}

/// Everything recovery can reconstruct from a durability directory.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Sequence number of the snapshot, if one exists.
    pub snapshot_seq: Option<u64>,
    /// Snapshot payload, if one exists.
    pub snapshot: Option<Vec<u8>>,
    /// Complete WAL records, in append order. May overlap the snapshot if
    /// the crash hit between snapshot rename and WAL reset — apply
    /// idempotently.
    pub wal_records: Vec<Vec<u8>>,
    /// Torn-tail bytes the WAL scan discarded.
    pub wal_torn_bytes: u64,
}

impl Recovery {
    /// Load snapshot + WAL from a durability directory. A missing
    /// directory or empty files yield an empty (but valid) recovery image.
    pub fn replay(dir: &Path) -> io::Result<Recovery> {
        let snap = Checkpoint::read(dir)?;
        let wal = replay_wal(&wal_path(dir))?;
        let (snapshot_seq, snapshot) = match snap {
            Some((seq, payload)) => (Some(seq), Some(payload)),
            None => (None, None),
        };
        Ok(Recovery {
            snapshot_seq,
            snapshot,
            wal_records: wal.records,
            wal_torn_bytes: wal.torn_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cp-durable-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_fed_in_pieces_equals_one_slice() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 500, 999, 1000] {
            let mut crc = Crc32::default();
            crc.update(&bytes[..split]);
            crc.update(&[]);
            crc.update(&bytes[split..]);
            assert_eq!(crc.finish(), crc32(&bytes), "split at {split}");
        }
    }

    /// The frames of `payloads` as the format lays them out, framed here
    /// independently of `Wal::append`.
    fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(p).to_le_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    #[test]
    fn wal_appends_reach_the_file_only_at_sync() {
        let dir = temp_dir("batched");
        let path = wal_path(&dir);
        let payloads = vec![b"alpha".to_vec(), vec![], b"gamma".to_vec()];
        let mut wal = Wal::open(&path).unwrap();
        for p in &payloads {
            wal.append(p).unwrap();
        }
        // Accounted for, not yet written: a process dying here loses the
        // window, exactly as one dying before the fsync always did.
        assert_eq!(wal.stats().appends, 3);
        assert_eq!(wal.stats().bytes, 3 * FRAME_HEADER_LEN + 10);
        assert_eq!(fs::read(&path).unwrap().len() as u64, WAL_HEADER_LEN);
        wal.sync().unwrap();
        assert_eq!(fs::read(&path).unwrap()[WAL_HEADER_LEN as usize..], framed(&payloads));
        // A batch dropped with its process leaves the synced prefix.
        wal.append(b"never synced").unwrap();
        drop(wal);
        assert_eq!(replay_wal(&path).unwrap().records, payloads);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_refuses_a_record_above_the_frame_limit() {
        let dir = temp_dir("oversize");
        let path = wal_path(&dir);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"before").unwrap();
        let too_big = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let err = wal.append(&too_big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.stats().appends, 2, "the refused record is not counted");
        drop(wal);
        // Replay would have read the oversized length as a torn tail and
        // cut "after" off with it; refused at append, nothing is lost.
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, vec![b"before".to_vec(), b"after".to_vec()]);
        assert_eq!(replay.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_append_sync_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = wal_path(&dir);
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![0u8; 1000], b"z".to_vec()];
        {
            let mut wal = Wal::open(&path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!(wal.stats().appends, 4);
            assert_eq!(wal.stats().syncs, 1);
        }
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, payloads);
        assert_eq!(replay.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_reopen_appends_after_existing_records() {
        let dir = temp_dir("reopen");
        let path = wal_path(&dir);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"one").unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"two").unwrap();
            wal.sync().unwrap();
        }
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, vec![b"one".to_vec(), b"two".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_open_truncates_torn_tail() {
        let dir = temp_dir("torn-open");
        let path = wal_path(&dir);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"keep me").unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: half a frame header.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55, 0x55, 0x55]).unwrap();
        drop(f);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"after crash").unwrap();
            wal.sync().unwrap();
        }
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, vec![b"keep me".to_vec(), b"after crash".to_vec()]);
        assert_eq!(replay.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_corrupted_payload_byte_drops_only_last_frame() {
        let dir = temp_dir("bitflip");
        let path = wal_path(&dir);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"mangled").unwrap();
            wal.sync().unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, vec![b"good".to_vec()]);
        assert!(replay.torn_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_bad_magic_is_an_error_not_a_torn_tail() {
        let dir = temp_dir("magic");
        let path = wal_path(&dir);
        fs::write(&path, b"NOTWAL\0\0extra-bytes").unwrap();
        assert!(replay_wal(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_reset_clears_records() {
        let dir = temp_dir("reset");
        let path = wal_path(&dir);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"pre-snapshot").unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        wal.append(b"post-snapshot").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, vec![b"post-snapshot".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_round_trip_and_atomic_replace() {
        let dir = temp_dir("snap");
        assert_eq!(Checkpoint::read(&dir).unwrap(), None);
        Checkpoint::write(&dir, 7, b"state v7").unwrap();
        assert_eq!(Checkpoint::read(&dir).unwrap(), Some((7, b"state v7".to_vec())));
        Checkpoint::write(&dir, 8, b"state v8 bigger").unwrap();
        assert_eq!(
            Checkpoint::read(&dir).unwrap(),
            Some((8, b"state v8 bigger".to_vec()))
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_streamed_in_pieces_is_the_same_file() {
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let whole = temp_dir("snap-whole");
        Checkpoint::write(&whole, 9, &payload).unwrap();
        let pieces = temp_dir("snap-pieces");
        let mut w = SnapshotWriter::create(&pieces, 9).unwrap();
        // Pieces below, at and above the file buffer's size.
        let mut rest = &payload[..];
        for size in [1, 0, 100, SNAP_BUFFER_LEN, SNAP_BUFFER_LEN + 1, usize::MAX] {
            let (piece, tail) = rest.split_at(size.min(rest.len()));
            w.write(piece).unwrap();
            rest = tail;
        }
        assert_eq!(w.finish().unwrap(), payload.len() as u64);
        assert_eq!(
            fs::read(snapshot_path(&pieces)).unwrap(),
            fs::read(snapshot_path(&whole)).unwrap()
        );
        assert_eq!(Checkpoint::read(&pieces).unwrap(), Some((9, payload)));
        assert!(!pieces.join("snapshot.tmp").exists());
        fs::remove_dir_all(&whole).unwrap();
        fs::remove_dir_all(&pieces).unwrap();
    }

    #[test]
    fn snapshot_writer_dropped_mid_stream_keeps_the_previous_snapshot() {
        let dir = temp_dir("snap-dropped");
        Checkpoint::write(&dir, 1, b"previous").unwrap();
        let mut w = SnapshotWriter::create(&dir, 2).unwrap();
        w.write(&vec![7u8; 3 * SNAP_BUFFER_LEN]).unwrap();
        drop(w); // the process died, or the encoder above it failed
        assert!(dir.join("snapshot.tmp").exists(), "never renamed");
        assert_eq!(Checkpoint::read(&dir).unwrap(), Some((1, b"previous".to_vec())));
        // The next checkpoint starts the temp file over.
        Checkpoint::write(&dir, 2, b"next").unwrap();
        assert_eq!(Checkpoint::read(&dir).unwrap(), Some((2, b"next".to_vec())));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_too_long_for_its_header_is_refused_at_finish() {
        let dir = temp_dir("snap-4gib");
        Checkpoint::write(&dir, 1, b"previous").unwrap();
        let mut w = SnapshotWriter::create(&dir, 2).unwrap();
        w.write(b"the last piece of 4 GiB").unwrap();
        // As if 4 GiB had gone by: `as u32` would have stored a length of 0
        // and every later read refused the file as "length mismatch".
        w.len = u64::from(u32::MAX) + 1;
        assert_eq!(w.finish().unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(Checkpoint::read(&dir).unwrap(), Some((1, b"previous".to_vec())));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_corruption_is_refused() {
        let dir = temp_dir("snapcorrupt");
        Checkpoint::write(&dir, 1, b"payload-bytes").unwrap();
        let p = snapshot_path(&dir);
        let mut bytes = fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&p, &bytes).unwrap();
        assert!(Checkpoint::read(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_combines_snapshot_and_wal() {
        let dir = temp_dir("recover");
        Checkpoint::write(&dir, 3, b"snapshot-state").unwrap();
        let mut wal = Wal::open(&wal_path(&dir)).unwrap();
        wal.append(b"delta-1").unwrap();
        wal.append(b"delta-2").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let r = Recovery::replay(&dir).unwrap();
        assert_eq!(r.snapshot_seq, Some(3));
        assert_eq!(r.snapshot, Some(b"snapshot-state".to_vec()));
        assert_eq!(r.wal_records, vec![b"delta-1".to_vec(), b"delta-2".to_vec()]);
        assert_eq!(r.wal_torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_of_empty_dir_is_empty() {
        let dir = temp_dir("empty");
        let r = Recovery::replay(&dir).unwrap();
        assert!(r.snapshot.is_none());
        assert!(r.wal_records.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The acceptance-criteria property, exhaustively for a fixed log:
    /// truncating the WAL file at EVERY byte boundary recovers exactly the
    /// frames that are complete within the prefix — never garbage, never an
    /// error. The log is two batches, each several frames in one
    /// `write_all`: a torn batch keeps its complete frames.
    #[test]
    fn wal_truncation_at_every_byte_prefix_is_safe() {
        let dir = temp_dir("every-byte");
        let path = wal_path(&dir);
        let payloads: Vec<Vec<u8>> =
            vec![b"first".to_vec(), b"second-record".to_vec(), vec![9u8; 37], b"x".to_vec()];
        {
            let mut wal = Wal::open(&path).unwrap();
            for batch in payloads.chunks(2) {
                for p in batch {
                    wal.append(p).unwrap();
                }
                wal.sync().unwrap();
            }
            assert_eq!(wal.stats().syncs, 2);
        }
        let full = fs::read(&path).unwrap();
        // Frame boundaries: header, then header+frames cumulatively.
        let mut boundaries = vec![WAL_HEADER_LEN as usize];
        for p in &payloads {
            boundaries.push(boundaries.last().unwrap() + FRAME_HEADER_LEN as usize + p.len());
        }
        for cut in 0..=full.len() {
            let prefix_path = dir.join("prefix.log");
            fs::write(&prefix_path, &full[..cut]).unwrap();
            let replay = replay_wal(&prefix_path).unwrap();
            let expect_n = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(
                replay.records.len(),
                expect_n,
                "cut at byte {cut}: expected {expect_n} records, got {}",
                replay.records.len()
            );
            assert_eq!(&replay.records[..], &payloads[..expect_n], "cut at byte {cut}");
            // And a Wal reopened on the prefix keeps accepting appends.
            let mut wal = Wal::open(&prefix_path).unwrap();
            wal.append(b"resumed").unwrap();
            wal.sync().unwrap();
            drop(wal);
            let resumed = replay_wal(&prefix_path).unwrap();
            assert_eq!(resumed.records.len(), expect_n + 1, "cut at byte {cut}");
            assert_eq!(resumed.records.last().unwrap(), b"resumed", "cut at byte {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
