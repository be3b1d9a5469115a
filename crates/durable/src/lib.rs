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
//!   Appends are framed into one buffer the log keeps and written through
//!   to the file each time that buffer passes 64 KiB; [`Wal::sync`] at each
//!   durability point writes the rest and issues the batch's one fsync.
//!   Nothing is promised before that fsync, so a window of any size costs
//!   64 KiB of memory and loses nothing a crash could not already take; a
//!   write that fails cuts the file back to where the batch began. A torn
//!   tail — a partial frame from a crash mid-write — is detected by
//!   length/checksum and **truncated**, never replayed; the whole frames
//!   of a batch whose fsync never came are replayed, so a batch carries the
//!   record that vouches for the others (the portal's cursor) last.
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
/// The length past which the WAL's batch buffer is written through, and the
/// capacity it keeps from one sync to the next.
const BATCH_KEEP_LEN: usize = 64 * 1024;

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` is followed by `k`
/// zero bytes, so sixteen lookups fold sixteen bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let c = tables[k - 1][i];
            tables[k][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
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
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // The register folds into the block's first four bytes; byte
            // `j` of the block then has `15 - j` bytes after it.
            let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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

/// What the rest of a batch gets once one of its writes has failed.
fn batch_dropped() -> io::Error {
    io::Error::other("wal: an earlier write of this batch failed; the batch is dropped")
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
    /// Frames appended since the last sync: the batch. They are in `batch`
    /// or, written through, in the file from `batch_start` on.
    pending: usize,
    /// The batch's frames not yet written, back to back.
    batch: Vec<u8>,
    /// Where the batch begins in the file: what a failed write cuts the
    /// file back to.
    batch_start: u64,
    /// Where the next write lands: `batch_start` plus what has been written
    /// through.
    file_end: u64,
    /// A write-through of this batch failed and took the batch with it; the
    /// appends up to the next sync are refused and that sync reports the
    /// loss, so a batch reaches the file whole or not at all.
    dropped: bool,
    stats: WalStats,
    /// Bytes the file accepts before a write fails part-way, once.
    #[cfg(test)]
    fail_write_after: Option<usize>,
}

impl Wal {
    /// Open (creating if absent) with explicit-only fsync batching: records
    /// accumulate until [`Wal::sync`] is called at the durability point.
    pub fn open(path: &Path) -> io::Result<Wal> {
        let replay = replay_wal(path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let disk_len = file.metadata()?.len();
        let end = if replay.valid_len == 0 {
            // Empty or torn-header file: start fresh.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut header = [0u8; WAL_HEADER_LEN as usize];
            header[..6].copy_from_slice(WAL_MAGIC);
            header[6..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
            WAL_HEADER_LEN
        } else {
            if disk_len != replay.valid_len {
                file.set_len(replay.valid_len)?;
                file.sync_all()?;
            }
            file.seek(SeekFrom::Start(replay.valid_len))?;
            replay.valid_len
        };
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            pending: 0,
            batch: Vec::new(),
            batch_start: end,
            file_end: end,
            dropped: false,
            stats: WalStats::default(),
            #[cfg(test)]
            fail_write_after: None,
        })
    }

    /// Frame one record into the pending batch. The batch is written
    /// through to the file whenever it passes `BATCH_KEEP_LEN`, so the log
    /// holds a bounded part of a window in memory however large the window;
    /// nothing is durable before the next [`Wal::sync`]. A payload above the
    /// frame limit is refused with `InvalidInput`: replay would read its
    /// length as a torn tail and drop it together with every frame behind
    /// it.
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
        if self.dropped {
            return Err(batch_dropped());
        }
        self.batch.extend_from_slice(&len.to_le_bytes());
        self.batch.extend_from_slice(&crc32(payload).to_le_bytes());
        self.batch.extend_from_slice(payload);
        self.stats.appends += 1;
        self.stats.bytes += FRAME_HEADER_LEN + u64::from(len);
        self.pending += 1;
        if self.batch.len() > BATCH_KEEP_LEN {
            if let Err(e) = self.write_through() {
                self.dropped = true;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Hand the buffered frames to the file. A failed write takes back
    /// whatever part of the batch reached the file, in this write or an
    /// earlier one — a torn frame in the middle of the log would hide every
    /// later one — and the batch is dropped: its window counts as not
    /// persisted.
    fn write_through(&mut self) -> io::Result<()> {
        let written = self.write_batch();
        let len = self.batch.len() as u64;
        self.batch.clear();
        match written {
            Ok(()) => self.file_end += len,
            Err(_) => {
                let _ = self.file.set_len(self.batch_start);
                let _ = self.file.seek(SeekFrom::Start(self.batch_start));
                self.file_end = self.batch_start;
            }
        }
        written
    }

    fn write_batch(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if let Some(room) = self.fail_write_after {
            if room < self.batch.len() {
                self.fail_write_after = None;
                self.file.write_all(&self.batch[..room])?;
                return Err(io::Error::other("injected write failure"));
            }
            self.fail_write_after = Some(room - self.batch.len());
        }
        self.file.write_all(&self.batch)
    }

    /// Write what is left of the batch and make all of it durable with one
    /// fsync (the batch boundary). A write that fails here, or failed when
    /// the batch was written through, leaves the file as the last sync left
    /// it and is reported here.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending == 0 {
            return Ok(());
        }
        self.pending = 0;
        let written = if std::mem::take(&mut self.dropped) {
            Err(batch_dropped())
        } else {
            self.write_through()
        };
        // A record longer than a window's worth is not kept room for.
        self.batch.shrink_to(BATCH_KEEP_LEN);
        written?;
        self.batch_start = self.file_end;
        self.file.sync_all()?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Truncate the log back to an empty header — called right after a
    /// snapshot makes every logged record, pending ones included, redundant.
    pub fn reset(&mut self) -> io::Result<()> {
        self.batch.clear();
        self.pending = 0;
        self.dropped = false;
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        (self.batch_start, self.file_end) = (WAL_HEADER_LEN, WAL_HEADER_LEN);
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

    /// The CRC-32 bit by bit, from the polynomial alone: no table.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn sliced_crc32_equals_the_bitwise_one_at_every_alignment_and_split() {
        assert_eq!(bitwise_crc32(b"123456789"), 0xCBF4_3926);
        let buffer: Vec<u8> = (0..216u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for start in 0..16 {
            for len in 0..=200 {
                let bytes = &buffer[start..start + len];
                let want = bitwise_crc32(bytes);
                assert_eq!(crc32(bytes), want, "start {start}, length {len}");
                for split in 0..=len {
                    let mut crc = Crc32::default();
                    crc.update(&bytes[..split]);
                    crc.update(&bytes[split..]);
                    assert_eq!(crc.finish(), want, "start {start}, length {len}, split {split}");
                }
            }
        }
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

    /// A window the size of a site: `rows` records of a QI/URL row's length
    /// (no two alike), then the record that vouches for them.
    fn site_window(rows: usize) -> Vec<Vec<u8>> {
        let mut window: Vec<Vec<u8>> = (0..rows)
            .map(|i| format!("row {i:06} {}", "x".repeat(150 + i % 90)).into_bytes())
            .collect();
        window.push(b"cursor".to_vec());
        window
    }

    fn file_len(path: &Path) -> u64 {
        fs::metadata(path).unwrap().len()
    }

    #[test]
    fn wal_batch_waits_for_sync_below_the_threshold_and_is_written_through_above_it() {
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
        assert_eq!(file_len(&path), WAL_HEADER_LEN);
        wal.sync().unwrap();
        assert_eq!(fs::read(&path).unwrap()[WAL_HEADER_LEN as usize..], framed(&payloads));
        let synced = file_len(&path);

        // A batch past the threshold is in the file before its sync, whole
        // frames only, and all of it but a buffer's worth.
        let window = site_window(2 * BATCH_KEEP_LEN / 200);
        let mut appended = 0;
        for p in &window {
            wal.append(p).unwrap();
            appended += FRAME_HEADER_LEN as usize + p.len();
            let in_file = (file_len(&path) - synced) as usize;
            assert!(in_file <= appended && appended - in_file <= BATCH_KEEP_LEN);
            assert_eq!(in_file > 0, appended > BATCH_KEEP_LEN, "{appended} appended");
        }
        assert!(file_len(&path) > synced + BATCH_KEEP_LEN as u64);
        // In the file is not durable: the batch has had no fsync, and a
        // process dying here leaves rows nothing vouches for.
        assert_eq!(wal.stats().syncs, 1);
        drop(wal);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records[..3], payloads[..]);
        assert_eq!(replay.records[3..], window[..replay.records.len() - 3]);
        assert!(replay.records.len() < 3 + window.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch several times the threshold goes out in several writes. The
    /// file is the one a single write made, and a crash that cuts it
    /// anywhere — between two writes included — recovers the frames that are
    /// whole before the cut: never one past a torn frame, and never the
    /// last record (the cursor) without every row before it. Replaying a
    /// prefix costs its length, so the frames cut are the ones on either
    /// side of each write's end, the batch's first and last, and every
    /// sixteenth: each in every byte of its header, mid-payload, one byte
    /// short and whole. (`wal_truncation_at_every_byte_prefix_is_safe` cuts
    /// a short log at every byte.)
    #[test]
    fn wal_batch_written_through_is_the_same_file_and_tears_safely() {
        let dir = temp_dir("site-batch");
        let path = wal_path(&dir);
        let before = [b"last window".to_vec()];
        let window = site_window(3 * BATCH_KEEP_LEN / 200);
        let mut write_ends = Vec::new();
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&before[0]).unwrap();
            wal.sync().unwrap();
            let mut len = file_len(&path);
            for p in &window {
                wal.append(p).unwrap();
                if file_len(&path) != len {
                    len = file_len(&path);
                    write_ends.push(len as usize);
                }
            }
            wal.sync().unwrap();
            assert_eq!(wal.stats().syncs, 2);
        }
        assert!(write_ends.len() >= 3, "writes ended at {write_ends:?}");
        let all: Vec<Vec<u8>> = before.iter().chain(&window).cloned().collect();
        let full = fs::read(&path).unwrap();
        assert_eq!(full[WAL_HEADER_LEN as usize..], framed(&all));

        let mut boundaries = vec![WAL_HEADER_LEN as usize];
        for p in &all {
            boundaries.push(boundaries.last().unwrap() + FRAME_HEADER_LEN as usize + p.len());
        }
        assert!(write_ends.iter().all(|end| boundaries.contains(end)));
        let mut cuts = Vec::new();
        for (k, frame) in boundaries.windows(2).enumerate() {
            let (start, end) = (frame[0], frame[1]);
            let beside_a_write = write_ends.iter().any(|&w| w == start || w == end);
            if beside_a_write || k <= 1 || k + 1 == all.len() || k.is_multiple_of(16) {
                cuts.extend(start..=start + FRAME_HEADER_LEN as usize);
                cuts.extend([(start + end) / 2, end - 1, end]);
            }
        }
        let prefix_path = dir.join("prefix.log");
        for cut in cuts {
            fs::write(&prefix_path, &full[..cut]).unwrap();
            let replay = replay_wal(&prefix_path).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records.len(), whole, "cut at byte {cut}");
            assert_eq!(replay.records[..], all[..whole], "cut at byte {cut}");
            assert_eq!(replay.valid_len, boundaries[whole] as u64, "cut at byte {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A write that fails — when the batch is written through, or at its
    /// sync — takes the whole batch back, the part earlier writes put in the
    /// file included, and the batch after it is whole.
    #[test]
    fn wal_failed_write_leaves_the_file_at_the_batch_start() {
        let dir = temp_dir("write-fails");
        let path = wal_path(&dir);
        let window = site_window(3 * BATCH_KEEP_LEN / 200);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"durable").unwrap();
        wal.sync().unwrap();
        let batch_start = file_len(&path);
        let mut expected = vec![b"durable".to_vec()];

        // The second write-through fails part-way.
        wal.fail_write_after = Some(BATCH_KEEP_LEN + 1000);
        let mut refused = 0;
        for p in &window {
            if wal.append(p).is_err() {
                refused += 1;
                assert_eq!(file_len(&path), batch_start, "cut back at the failure");
            }
        }
        // Everything after the failure is refused, the cursor too: no sync
        // can make part of this batch durable.
        assert!(refused > window.len() / 3, "{refused} appends refused");
        assert!(wal.append(b"straggler").is_err());
        assert!(wal.sync().is_err());
        assert_eq!((file_len(&path), wal.stats().syncs), (batch_start, 1));

        // The next batch is written through and synced as if nothing happened.
        for p in &window {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        expected.extend(window.iter().cloned());
        let batch_start = file_len(&path);

        // A batch whose last write, the one at sync, fails: what was written
        // through before it goes too.
        let one_write = window[..window.len() / 2].iter();
        let spilled: usize = one_write.map(|p| FRAME_HEADER_LEN as usize + p.len()).sum();
        assert!(spilled > BATCH_KEEP_LEN && spilled < 2 * BATCH_KEEP_LEN);
        wal.fail_write_after = Some(spilled - 100);
        for p in &window[..window.len() / 2] {
            wal.append(p).unwrap();
        }
        assert!(file_len(&path) > batch_start, "written through");
        assert!(wal.sync().is_err());
        assert_eq!((file_len(&path), wal.stats().syncs), (batch_start, 2));

        // And a small one, all of it in the one write at sync.
        wal.fail_write_after = Some(10);
        wal.append(b"lost with its batch").unwrap();
        assert!(wal.sync().is_err());
        assert_eq!(file_len(&path), batch_start);

        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        expected.push(b"after".to_vec());
        drop(wal);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert!(replay.records == expected, "{} records", replay.records.len());
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
    fn wal_reset_after_a_write_through_leaves_an_empty_header() {
        let dir = temp_dir("reset-written-through");
        let path = wal_path(&dir);
        let mut wal = Wal::open(&path).unwrap();
        for p in &site_window(2 * BATCH_KEEP_LEN / 200) {
            wal.append(p).unwrap();
        }
        assert!(file_len(&path) > BATCH_KEEP_LEN as u64);
        wal.reset().unwrap();
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        assert_eq!(fs::read(&path).unwrap(), header);
        // The unsynced batch is gone from the buffer too.
        wal.append(b"post-snapshot").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(replay_wal(&path).unwrap().records, vec![b"post-snapshot".to_vec()]);
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
