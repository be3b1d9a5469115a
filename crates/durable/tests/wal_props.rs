//! Property tests for the WAL/snapshot layer: arbitrary record sequences
//! survive encode → crash-at-any-byte-prefix → replay, torn tails are
//! detected by checksum and truncated, and snapshot+WAL recovery always
//! reconstructs a prefix of the durable history — never garbage.

use cacheportal_durable::{replay_wal, wal_path, Checkpoint, Recovery, Wal};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cp-durable-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&d).unwrap();
    d
}

/// Write `records` through a Wal and return the raw file bytes.
fn encode(dir: &Path, records: &[Vec<u8>]) -> Vec<u8> {
    let path = wal_path(dir);
    let mut wal = Wal::open(&path).unwrap();
    for r in records {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    fs::read(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round trip: whatever goes in comes back out, bit for bit.
    #[test]
    fn wal_round_trip(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..20),
    ) {
        let dir = temp_dir("rt");
        let bytes = encode(&dir, &records);
        let replay = replay_wal(&wal_path(&dir)).unwrap();
        prop_assert_eq!(&replay.records, &records);
        prop_assert_eq!(replay.valid_len, bytes.len() as u64);
        prop_assert_eq!(replay.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Crash at an arbitrary byte prefix: replay returns exactly the
    /// records fully contained in the prefix, in order — a strict prefix
    /// of the original sequence, never reordered or corrupted.
    #[test]
    fn wal_any_byte_prefix_recovers_a_record_prefix(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("cut");
        let bytes = encode(&dir, &records);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let p = dir.join("cut.log");
        fs::write(&p, &bytes[..cut]).unwrap();
        let replay = replay_wal(&p).unwrap();
        prop_assert!(replay.records.len() <= records.len());
        prop_assert_eq!(&replay.records[..], &records[..replay.records.len()]);
        prop_assert_eq!(replay.valid_len + replay.torn_bytes, cut as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flip any single byte in the last frame: the checksum must catch it
    /// and replay must drop that frame (and everything after the damage)
    /// rather than surface mangled data.
    #[test]
    fn wal_bit_flip_in_tail_is_truncated_not_misreplayed(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 1..8),
        flip_pos_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("flip");
        let mut bytes = encode(&dir, &records);
        // Locate the last frame: header(8) + preceding frames.
        let mut off = 8usize;
        for r in &records[..records.len() - 1] {
            off += 8 + r.len();
        }
        let last_payload = &records[records.len() - 1];
        // Flip a byte inside the last frame's crc or payload region (skip
        // the length field so the frame stays structurally plausible).
        let lo = off + 4;
        let hi = off + 8 + last_payload.len();
        let pos = lo + (((hi - lo - 1) as f64) * flip_pos_frac) as usize;
        bytes[pos] ^= 0x80;
        let p = dir.join("flip.log");
        fs::write(&p, &bytes).unwrap();
        let replay = replay_wal(&p).unwrap();
        prop_assert_eq!(&replay.records[..], &records[..records.len() - 1]);
        prop_assert!(replay.torn_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Snapshot + WAL recovery: for an arbitrary split of a record history
    /// into a snapshotted prefix and a WAL tail, `Recovery::replay`
    /// reconstructs both halves exactly; a torn cut in the WAL tail only
    /// ever shortens the tail.
    #[test]
    fn snapshot_plus_wal_recovery_is_exact(
        snap_payload in prop::collection::vec(any::<u8>(), 0..300),
        seq in 0u64..1000,
        tail in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("snapwal");
        Checkpoint::write(&dir, seq, &snap_payload).unwrap();
        let bytes = encode(&dir, &tail);
        let r = Recovery::replay(&dir).unwrap();
        prop_assert_eq!(r.snapshot_seq, Some(seq));
        prop_assert_eq!(r.snapshot.as_deref(), Some(&snap_payload[..]));
        prop_assert_eq!(&r.wal_records, &tail);
        // Now tear the WAL at an arbitrary byte and recover again: the
        // snapshot is untouched and the tail shrinks to a prefix.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        fs::write(wal_path(&dir), &bytes[..cut]).unwrap();
        let torn = Recovery::replay(&dir).unwrap();
        prop_assert_eq!(torn.snapshot.as_deref(), Some(&snap_payload[..]));
        prop_assert!(torn.wal_records.len() <= tail.len());
        prop_assert_eq!(&torn.wal_records[..], &tail[..torn.wal_records.len()]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
