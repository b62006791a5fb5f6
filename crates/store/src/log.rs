//! The crash-safe append-only sales log.
//!
//! Streaming ingestion appends batches of sales transactions faster
//! than full model rewrites can keep up, so the log is *append-only*:
//! a batch is one record, fsynced before the append returns, and a
//! crash mid-append can only ever damage the **tail** of the file.
//! [`SalesLog::open`] detects a torn tail (a record header or payload
//! cut short by a crash), truncates it away, and reports how many bytes
//! were dropped — every fully-written record before it survives.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! v1 (fresh logs)            v2 (compacted logs)
//! offset  size  field        offset  size  field
//!      0     4  magic PMSL        0     4  magic PMSL
//!      4     4  version = 1       4     4  version = 2
//!      8     …  records           8     8  base index (u64)
//!                                16     …  records
//!
//! record: [payload length (u32)] [CRC-32 of payload (u32)] [payload]
//! ```
//!
//! A fresh log is v1 and implicitly starts at record 0. Compaction
//! ([`SalesLog::compact_to`]) atomically rewrites the file as v2,
//! recording the absolute index of its first surviving record in the
//! header — the log *self-describes* where its records sit in the
//! stream, so recovery can line a checkpoint up against it without any
//! side-channel bookkeeping, and a crash between checkpoint-write and
//! compaction leaves a consistent (merely uncompacted) pair.
//!
//! Corruption semantics mirror the model envelope, with one deliberate
//! difference: a record cut short **at the end of the file** is a torn
//! append (expected under crash), recovered by truncation — while a
//! *complete* record whose payload fails its CRC is silent media
//! corruption and surfaces as [`StoreError::ChecksumMismatch`], never a
//! silent skip. The file header is created via [`crate::write_atomic`],
//! so a log either exists with a complete header or not at all; appends
//! honor the [`crate::faults`] torn-write hook so tests can crash them
//! at exact byte offsets.

use crate::{faults, StoreError};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The four magic bytes every sales log starts with.
pub const MAGIC: [u8; 4] = *b"PMSL";

/// The version written for fresh logs (no base index; records start
/// at stream position 0).
pub const FORMAT_VERSION: u32 = 1;

/// The version written by compaction (header carries a base index).
pub const COMPACTED_VERSION: u32 = 2;

/// v1 file header size in bytes (magic + version).
pub const HEADER_LEN: usize = 8;

/// v2 file header size in bytes (magic + version + base index).
pub const V2_HEADER_LEN: usize = 16;

/// Per-record header size in bytes (payload length + CRC).
pub const RECORD_HEADER_LEN: usize = 8;

/// What [`SalesLog::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The payloads of every fully-written record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Absolute stream index of `records[0]`: 0 for a fresh (v1) log,
    /// the compaction point for a compacted (v2) log.
    pub base: u64,
    /// Bytes of torn tail dropped (0 when the log closed cleanly).
    pub truncated_bytes: u64,
}

/// What [`SalesLog::compact_to`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compaction {
    /// Records dropped (they were already covered by the checkpoint).
    pub dropped: u64,
    /// Records retained as the post-checkpoint tail.
    pub retained: u64,
}

/// An open append-only sales log.
#[derive(Debug)]
pub struct SalesLog {
    path: PathBuf,
}

impl SalesLog {
    /// Open (or create) the log at `path`, replaying every complete
    /// record and truncating any torn tail a crash left behind.
    ///
    /// A missing file is created with just the header — atomically, so
    /// a crash during creation leaves either no file or a complete
    /// header. Corruption *before* the tail (bad magic, bad version,
    /// a complete record with a CRC mismatch) is a typed error: the
    /// log refuses to replay garbage as sales.
    pub fn open(path: impl AsRef<Path>) -> Result<(SalesLog, Recovery), StoreError> {
        let path = path.as_ref();
        if !path.exists() {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            crate::write_atomic(path, &header)?;
        }
        let bytes = crate::read_file(path)?;
        let (base, records, offset) = parse(&bytes)?;
        let truncated = (bytes.len() - offset) as u64;
        if truncated > 0 {
            // Physically drop the torn tail so the next append starts at
            // a record boundary instead of interleaving with garbage.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| StoreError::io(path, "open", e))?;
            f.set_len(offset as u64)
                .map_err(|e| StoreError::io(path, "truncate", e))?;
            f.sync_all().map_err(|e| StoreError::io(path, "sync", e))?;
        }

        Ok((
            SalesLog {
                path: path.to_path_buf(),
            },
            Recovery {
                records,
                base,
                truncated_bytes: truncated,
            },
        ))
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record and fsync it. When the call returns, the
    /// record survives a crash; if the process dies mid-append, the
    /// next [`SalesLog::open`] truncates the partial record away.
    pub fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crate::envelope::crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::io(&self.path, "open", e))?;

        // Deterministic fault: the process dies after `k` bytes of the
        // record reach the disk — the torn tail the next open recovers.
        if let Some(k) = faults::torn_write_at() {
            let k = k.min(record.len());
            f.write_all(&record[..k])
                .map_err(|e| StoreError::io(&self.path, "append", e))?;
            let _ = f.sync_all();
            return Err(StoreError::Io {
                path: self.path.display().to_string(),
                op: "append",
                err: format!("injected torn write after {k} bytes"),
            });
        }

        // Deterministic fault: the disk fills after `k` bytes. The
        // partial record is a torn tail; the next open truncates it and
        // every record appended before this call survives.
        if let Some(k) = faults::disk_full_at() {
            let k = k.min(record.len());
            f.write_all(&record[..k])
                .map_err(|e| StoreError::io(&self.path, "append", e))?;
            let _ = f.sync_all();
            return Err(StoreError::io(
                &self.path,
                "append",
                std::io::Error::from_raw_os_error(crate::ENOSPC),
            ));
        }

        f.write_all(&record)
            .map_err(|e| StoreError::io(&self.path, "append", e))?;
        f.sync_all()
            .map_err(|e| StoreError::io(&self.path, "sync", e))?;
        Ok(())
    }

    /// Atomically compact the log: rewrite it (write-temp → fsync →
    /// rename, via [`crate::write_atomic`]) keeping only the records at
    /// absolute index `new_base` and beyond, with `new_base` recorded in
    /// a v2 header. Called after a checkpoint covering the stream up to
    /// `new_base` has been durably written, so restart replays only the
    /// post-checkpoint tail.
    ///
    /// `new_base` earlier than the current base is a
    /// [`StoreError::StaleCheckpoint`]; past the end of the log, a
    /// [`StoreError::CheckpointAheadOfLog`]. A crash at any instant
    /// leaves either the complete old log or the complete compacted one.
    pub fn compact_to(&self, new_base: u64) -> Result<Compaction, StoreError> {
        let bytes = crate::read_file(&self.path)?;
        let (base, records, _) = parse(&bytes)?;
        let end = base + records.len() as u64;
        if new_base < base {
            return Err(StoreError::StaleCheckpoint {
                checkpoint_pos: new_base,
                log_base: base,
            });
        }
        if new_base > end {
            return Err(StoreError::CheckpointAheadOfLog {
                checkpoint_pos: new_base,
                log_end: end,
            });
        }
        let keep = &records[(new_base - base) as usize..];
        let mut out = Vec::with_capacity(
            V2_HEADER_LEN
                + keep
                    .iter()
                    .map(|r| RECORD_HEADER_LEN + r.len())
                    .sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&COMPACTED_VERSION.to_le_bytes());
        out.extend_from_slice(&new_base.to_le_bytes());
        for payload in keep {
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crate::envelope::crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        crate::write_atomic(&self.path, &out)?;
        Ok(Compaction {
            dropped: new_base - base,
            retained: end - new_base,
        })
    }
}

/// Parse header + complete records. Returns `(base, records, offset)`
/// where `offset` is the end of the last complete record — anything
/// after it is a torn tail for the caller to truncate.
fn parse(bytes: &[u8]) -> Result<(u64, Vec<Vec<u8>>, usize), StoreError> {
    if bytes.is_empty() {
        return Err(StoreError::Empty);
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::TooShort { found: bytes.len() });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version == 0 || version > COMPACTED_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: COMPACTED_VERSION,
        });
    }
    let (base, header_len) = if version == COMPACTED_VERSION {
        // The v2 header is written only via write_atomic (compaction),
        // so it cannot be torn — a file shorter than it is corruption.
        if bytes.len() < V2_HEADER_LEN {
            return Err(StoreError::TooShort { found: bytes.len() });
        }
        (
            u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice")),
            V2_HEADER_LEN,
        )
    } else {
        (0, HEADER_LEN)
    };

    let mut records = Vec::new();
    let mut offset = header_len;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            break; // clean close
        }
        if remaining < RECORD_HEADER_LEN {
            break; // torn record header at the tail
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc =
            u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let body_start = offset + RECORD_HEADER_LEN;
        if bytes.len() - body_start < len {
            break; // torn payload at the tail
        }
        let payload = &bytes[body_start..body_start + len];
        let found_crc = crate::envelope::crc32(payload);
        if found_crc != stored_crc {
            // A *complete* record that fails its checksum is not a
            // torn append — it is corruption, and replaying past it
            // would resurrect garbage sales.
            return Err(StoreError::ChecksumMismatch {
                expected: stored_crc,
                found: found_crc,
            });
        }
        records.push(payload.to_vec());
        offset = body_start + len;
    }
    Ok((base, records, offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pm-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn create_append_replay_round_trip() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("rt");
        let p = dir.join("sales.log");
        let (log, rec) = SalesLog::open(&p).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
        log.append(b"batch-1").unwrap();
        log.append(b"batch-2 with more bytes").unwrap();
        log.append(b"").unwrap(); // empty payloads are legal records
        let (_, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(
            rec.records,
            vec![
                b"batch-1".to_vec(),
                b"batch-2 with more bytes".to_vec(),
                vec![]
            ]
        );
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_layout_is_stable() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("hdr");
        let p = dir.join("sales.log");
        SalesLog::open(&p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(&bytes[0..4], b"PMSL");
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 1);
        assert_eq!(bytes.len(), HEADER_LEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("magic");
        let p = dir.join("sales.log");
        SalesLog::open(&p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[0] = b'X';
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            SalesLog::open(&p).unwrap_err(),
            StoreError::BadMagic { found } if found == *b"XMSL"
        ));
        bytes[0] = b'P';
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            SalesLog::open(&p).unwrap_err(),
            StoreError::UnsupportedVersion {
                found: 99,
                supported: COMPACTED_VERSION
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_covered_records_and_records_the_base() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("compact");
        let p = dir.join("sales.log");
        let (log, _) = SalesLog::open(&p).unwrap();
        for i in 0..5u8 {
            log.append(format!("batch-{i}").as_bytes()).unwrap();
        }
        let stats = log.compact_to(3).unwrap();
        assert_eq!(
            stats,
            Compaction {
                dropped: 3,
                retained: 2
            }
        );
        // The compacted file is v2 and self-describes its base.
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(&bytes[0..4], b"PMSL");
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 3);
        let (log, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(rec.base, 3);
        assert_eq!(rec.records, vec![b"batch-3".to_vec(), b"batch-4".to_vec()]);
        // Appends keep working at the right absolute index.
        log.append(b"batch-5").unwrap();
        let (log, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(rec.base + rec.records.len() as u64, 6);
        // Re-compacting to the same base is idempotent; to the end,
        // empties the tail.
        log.compact_to(3).unwrap();
        let stats = log.compact_to(6).unwrap();
        assert_eq!(
            stats,
            Compaction {
                dropped: 3,
                retained: 0
            }
        );
        let (_, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(rec.base, 6);
        assert!(rec.records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_bounds_are_typed_errors() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("compact-bounds");
        let p = dir.join("sales.log");
        let (log, _) = SalesLog::open(&p).unwrap();
        for i in 0..4u8 {
            log.append(&[i]).unwrap();
        }
        log.compact_to(2).unwrap();
        // A checkpoint older than the compacted base lost its tail.
        assert_eq!(
            log.compact_to(1).unwrap_err(),
            StoreError::StaleCheckpoint {
                checkpoint_pos: 1,
                log_base: 2
            }
        );
        // A checkpoint past the end of the log claims records we lack.
        assert_eq!(
            log.compact_to(5).unwrap_err(),
            StoreError::CheckpointAheadOfLog {
                checkpoint_pos: 5,
                log_end: 4
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_compaction_leaves_the_old_log_intact() {
        let _guard = faults::test_lock();
        let dir = tmp_dir("compact-torn");
        let p = dir.join("sales.log");
        let (log, _) = SalesLog::open(&p).unwrap();
        for i in 0..3u8 {
            log.append(&[i; 4]).unwrap();
        }
        let before = std::fs::read(&p).unwrap();
        for k in [0usize, 1, V2_HEADER_LEN, V2_HEADER_LEN + 3] {
            faults::set_torn_write_at(Some(k));
            assert!(log.compact_to(2).is_err());
            faults::set_torn_write_at(None);
            assert_eq!(
                std::fs::read(&p).unwrap(),
                before,
                "torn compaction at byte {k} must not touch the log"
            );
            let names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(names, vec!["sales.log".to_string()], "{names:?}");
        }
        // With the fault cleared the same compaction succeeds.
        log.compact_to(2).unwrap();
        let (_, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(rec.base, 2);
        assert_eq!(rec.records, vec![vec![2u8; 4]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_full_append_is_recovered_as_a_torn_tail() {
        let _guard = faults::test_lock();
        let dir = tmp_dir("enospc");
        let p = dir.join("sales.log");
        let (log, _) = SalesLog::open(&p).unwrap();
        log.append(b"durable-before").unwrap();
        // The disk fills 5 bytes into the next record: the append fails
        // with ENOSPC and the partial bytes are a torn tail.
        faults::set_disk_full_at(Some(5));
        let err = log.append(b"lost-to-enospc").unwrap_err();
        assert!(
            err.to_string().contains("No space left"),
            "error must read like a real ENOSPC: {err}"
        );
        faults::set_disk_full_at(None);
        let (log, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(rec.records, vec![b"durable-before".to_vec()]);
        assert_eq!(rec.truncated_bytes, 5);
        // After space frees up, the retried append lands cleanly.
        log.append(b"retried").unwrap();
        let (_, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(
            rec.records,
            vec![b"durable-before".to_vec(), b"retried".to_vec()]
        );
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_is_a_typed_error() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("empty");
        let p = dir.join("sales.log");
        std::fs::write(&p, b"").unwrap();
        assert_eq!(SalesLog::open(&p).unwrap_err(), StoreError::Empty);
        std::fs::remove_dir_all(&dir).ok();
    }
}
