//! Crash-safe persistence for the profit-mining workspace.
//!
//! The serving path (`pm-serve`) and the CLI keep trained models and
//! datasets on disk; this crate makes those files survive the two
//! failure modes a long-running daemon actually meets:
//!
//! * **torn writes** — a crash (or full disk) halfway through rewriting
//!   a file must never leave a half-old/half-new target. [`write_atomic`]
//!   writes to a temp file in the same directory, fsyncs it, renames it
//!   over the target, and fsyncs the directory, so the target is always
//!   either the complete old bytes or the complete new bytes;
//! * **silent corruption** — a truncated or bit-flipped model file must
//!   be *detected at load* and reported with a typed error, never
//!   deserialized into garbage. [`envelope`] wraps a payload in a
//!   `PMDL` header carrying a format version, the payload length, and a
//!   CRC-32 over the payload; [`envelope::open`] checks all three.
//!
//! The [`faults`] module is a deterministic fault-injection layer (all
//! hooks default to off and cost one relaxed atomic load): tests inject
//! torn writes at byte `k`, short reads, checksum corruption, and
//! artificial latency, and assert that every fault class surfaces as the
//! right [`StoreError`] — see `tests/corruption_matrix.rs` and the
//! `pm-serve` smoke tests.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod envelope;
pub mod faults;
pub mod log;

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything that can go wrong reading or writing a stored file.
///
/// Each corruption class gets its own variant so tests (and operators)
/// can tell a truncated file from a bit-flip from a version skew; the
/// `Display` messages name the file's actual state, not just "bad file".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Underlying filesystem failure (open, read, write, rename, sync).
    Io {
        /// The path involved.
        path: String,
        /// The operation that failed (`open`, `write`, `rename`, ...).
        op: &'static str,
        /// The OS error text.
        err: String,
    },
    /// The file holds zero bytes — created but never written, or
    /// truncated to nothing. Distinct from [`StoreError::TooShort`] so
    /// operators can tell "empty placeholder" from "torn header".
    Empty,
    /// The path names a directory, a device, a FIFO or a socket, not a
    /// regular file. Reading one could block or never end (`/dev/zero`).
    NotAFile {
        /// The offending path.
        path: String,
        /// What it names instead (`"a directory"`, ...).
        kind: &'static str,
    },
    /// The file is shorter than an envelope header.
    TooShort {
        /// Bytes actually present.
        found: usize,
    },
    /// The first four bytes are not the `PMDL` magic.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The header declares a format version this build cannot read.
    /// Names both sides so the operator knows whether to upgrade the
    /// reader or re-export the file.
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
        /// The newest version this build can read.
        supported: u32,
    },
    /// A checkpoint older than the log's compacted base: the records it
    /// needs to replay from were already compacted away. Recovery must
    /// not proceed — the gap between checkpoint and log base is lost.
    StaleCheckpoint {
        /// Absolute stream position the checkpoint covers up to.
        checkpoint_pos: u64,
        /// Absolute index of the first record still in the log.
        log_base: u64,
    },
    /// A checkpoint claiming records the log does not hold — the log
    /// was truncated or swapped behind the checkpoint's back.
    CheckpointAheadOfLog {
        /// Absolute stream position the checkpoint covers up to.
        checkpoint_pos: u64,
        /// Absolute index one past the last record in the log.
        log_end: u64,
    },
    /// The payload is shorter than the header declares (torn write or
    /// truncation).
    Truncated {
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// The payload is longer than the header declares (concatenated or
    /// doubly-written file).
    TrailingBytes {
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// The payload does not hash to the stored CRC-32 (bit flip).
    ChecksumMismatch {
        /// CRC the header recorded at write time.
        expected: u32,
        /// CRC of the payload as read.
        found: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, op, err } => write!(f, "{path}: {op} failed: {err}"),
            StoreError::Empty => write!(
                f,
                "file is empty (0 bytes) — created but never written, or truncated to nothing"
            ),
            StoreError::NotAFile { path, kind } => {
                write!(f, "{path} is {kind}, not a regular file")
            }
            StoreError::TooShort { found } => write!(
                f,
                "file holds {found} bytes, shorter than the {} byte envelope header \
                 — truncated or not a model file",
                envelope::HEADER_LEN
            ),
            StoreError::BadMagic { found } => write!(
                f,
                "bad magic {found:?} (expected {:?} for models, {:?} for checkpoints, \
                 {:?} for sales logs) — not a recognized store file",
                envelope::MAGIC,
                checkpoint::MAGIC,
                log::MAGIC
            ),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "format version {found} is not readable by this build \
                 (it reads versions 1..={supported}) — upgrade the reader \
                 or re-export the file"
            ),
            StoreError::StaleCheckpoint {
                checkpoint_pos,
                log_base,
            } => write!(
                f,
                "stale checkpoint: it covers the stream up to record {checkpoint_pos}, \
                 but the log was compacted to base {log_base} — the records between \
                 them are gone; restore a newer checkpoint or the uncompacted log"
            ),
            StoreError::CheckpointAheadOfLog {
                checkpoint_pos,
                log_end,
            } => write!(
                f,
                "checkpoint ahead of log: it covers the stream up to record \
                 {checkpoint_pos}, but the log ends at record {log_end} — the log \
                 was truncated or replaced; refusing to serve a silently rewound stream"
            ),
            StoreError::Truncated { expected, found } => write!(
                f,
                "payload truncated: header declares {expected} bytes, file holds {found} \
                 — torn write or partial copy"
            ),
            StoreError::TrailingBytes { expected, found } => write!(
                f,
                "payload overlong: header declares {expected} bytes, file holds {found} \
                 — concatenated or corrupted file"
            ),
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: header records CRC-32 {expected:#010x}, payload hashes \
                 to {found:#010x} — corrupted file"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    fn io(path: &Path, op: &'static str, err: std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            op,
            err: err.to_string(),
        }
    }
}

/// Monotonic discriminator for temp-file names, so concurrent writers in
/// one process can never collide on the same temp path.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// `errno` for "No space left on device" — the injected disk-full fault
/// reports it so the error text matches a real ENOSPC.
const ENOSPC: i32 = 28;

/// Write `bytes` to `path` atomically: write-temp → fsync → rename →
/// fsync-directory. After a crash at any instant, `path` holds either
/// its complete previous contents or the complete new `bytes` — never a
/// mixture, never a prefix.
///
/// The temp file lives in the target's directory (rename must not cross
/// filesystems) and is removed on any failure, so an error cannot leave
/// litter; the target is untouched unless the rename happened.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), StoreError> {
    let path = path.as_ref();
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("pm-store");
    let temp = path.with_file_name(format!(
        ".{file_name}.pm-tmp-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));

    let result = write_temp_then_rename(path, &temp, bytes);
    if result.is_err() {
        // Graceful-failure path: never leave temp litter behind an
        // error. `NotFound` counts as clean — when the rename target's
        // parent directory vanished mid-write (concurrent cleanup), the
        // temp file vanished with it and there is nothing to remove.
        if let Err(e) = std::fs::remove_file(&temp) {
            debug_assert!(
                e.kind() == std::io::ErrorKind::NotFound || !temp.exists(),
                "temp litter left behind at {}: {e}",
                temp.display()
            );
        }
        return result;
    }

    // Make the rename itself durable: fsync the containing directory.
    if let Some(dir) = dir {
        let d = std::fs::File::open(dir).map_err(|e| StoreError::io(dir, "open dir", e))?;
        d.sync_all()
            .map_err(|e| StoreError::io(dir, "sync dir", e))?;
    }
    Ok(())
}

fn write_temp_then_rename(path: &Path, temp: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = std::fs::File::create(temp).map_err(|e| StoreError::io(temp, "create", e))?;

    // Deterministic fault: a crash after `k` bytes of the payload hit
    // the disk. The partial temp write is followed by the injected
    // failure, exactly as if the process died mid-write — the rename
    // below never runs, so the target must be untouched.
    if let Some(k) = faults::torn_write_at() {
        let k = k.min(bytes.len());
        f.write_all(&bytes[..k])
            .map_err(|e| StoreError::io(temp, "write", e))?;
        let _ = f.sync_all();
        return Err(StoreError::Io {
            path: temp.display().to_string(),
            op: "write",
            err: format!("injected torn write after {k} bytes"),
        });
    }

    // Deterministic fault: the disk fills after `k` bytes. Unlike a torn
    // write the process *survives* — the error propagates, the caller's
    // cleanup removes the temp file, and the target stays untouched.
    if let Some(k) = faults::disk_full_at() {
        let k = k.min(bytes.len());
        f.write_all(&bytes[..k])
            .map_err(|e| StoreError::io(temp, "write", e))?;
        let _ = f.sync_all();
        return Err(StoreError::io(
            temp,
            "write",
            std::io::Error::from_raw_os_error(ENOSPC),
        ));
    }

    f.write_all(bytes)
        .map_err(|e| StoreError::io(temp, "write", e))?;
    f.sync_all().map_err(|e| StoreError::io(temp, "sync", e))?;
    drop(f);

    // Deterministic fault: the target's parent directory vanishes (a
    // concurrent `rm -rf` of the data dir) between the temp write and
    // the rename. The rename below must fail, the caller's cleanup must
    // not mistake the vanished temp for litter, and the error must name
    // the rename — not panic or report success.
    if faults::take_vanish_parent() {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    std::fs::rename(temp, path).map_err(|e| StoreError::io(path, "rename", e))?;
    Ok(())
}

/// [`write_atomic`] for text files.
pub fn write_atomic_str(path: impl AsRef<Path>, text: &str) -> Result<(), StoreError> {
    write_atomic(path, text.as_bytes())
}

/// Read a whole regular file, honoring the read-side fault hooks
/// (artificial latency, short read at byte `k`, single-byte corruption).
///
/// Anything else is [`StoreError::NotAFile`], checked on the opened
/// handle so nothing can swap the file in between: a directory would
/// surface as a bare OS error that reads like disk trouble, and a device
/// or FIFO could block or stream without end (`/dev/zero`).
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<u8>, StoreError> {
    let path = path.as_ref();
    faults::apply_read_delay();
    let read_err = |e| StoreError::io(path, "read", e);
    let mut file = open_nonblocking(path).map_err(read_err)?;
    let meta = file.metadata().map_err(read_err)?;
    if !meta.is_file() {
        return Err(StoreError::NotAFile {
            path: path.display().to_string(),
            kind: if meta.is_dir() {
                "a directory"
            } else {
                "a device, FIFO or socket"
            },
        });
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(read_err)?;
    if let Some(k) = faults::short_read_at() {
        bytes.truncate(k);
    }
    if let Some(k) = faults::corrupt_byte_at() {
        if let Some(b) = bytes.get_mut(k) {
            *b ^= 0x01;
        }
    }
    Ok(bytes)
}

/// Open `path` for reading without waiting for a FIFO's writer, so
/// [`read_file`] can refuse it instead of hanging. The flag changes
/// nothing for a regular file.
fn open_nonblocking(path: &Path) -> std::io::Result<std::fs::File> {
    let mut options = std::fs::OpenOptions::new();
    options.read(true);
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::fs::OpenOptionsExt;
        const O_NONBLOCK: i32 = 0o4000;
        options.custom_flags(O_NONBLOCK);
    }
    options.open(path)
}

/// Where a loaded model file's bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// A `PMDL`-enveloped file; length and checksum were verified.
    Sealed,
}

/// Write `payload` to `path` as a sealed envelope, atomically.
pub fn save_sealed(path: impl AsRef<Path>, payload: &[u8]) -> Result<(), StoreError> {
    write_atomic(path, &envelope::seal(payload))
}

/// Load a model file: the envelope is verified (magic, version,
/// length, CRC) and its payload returned. Every model file is an
/// envelope, so a file that does not start with the magic is
/// [`StoreError::BadMagic`].
pub fn load_model_file(path: impl AsRef<Path>) -> Result<(Vec<u8>, Provenance), StoreError> {
    let bytes = read_file(path)?;
    let payload = envelope::open(&bytes)?;
    Ok((payload.to_vec(), Provenance::Sealed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pm-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_round_trips() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("rt");
        let p = dir.join("file.bin");
        write_atomic(&p, b"hello").unwrap();
        assert_eq!(read_file(&p).unwrap(), b"hello");
        // Overwrite is atomic too.
        write_atomic(&p, b"goodbye").unwrap();
        assert_eq!(read_file(&p).unwrap(), b"goodbye");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_litter() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("litter");
        write_atomic(dir.join("a.json"), b"{}").unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.json".to_string()], "{names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_full_mid_write_leaves_old_file_and_no_litter() {
        let _guard = faults::test_lock();
        let dir = tmp_dir("enospc");
        let p = dir.join("model.pm");
        write_atomic(&p, b"old contents").unwrap();
        // The disk fills partway through the replacement write: the
        // error names ENOSPC, the old file is untouched, and the temp
        // file is cleaned up — no litter for the operator to triage.
        for k in [0usize, 1, 5] {
            faults::set_disk_full_at(Some(k));
            let err = write_atomic(&p, b"new contents that do not fit").unwrap_err();
            assert!(
                err.to_string().contains("No space left"),
                "error must read like a real ENOSPC: {err}"
            );
            faults::set_disk_full_at(None);
            assert_eq!(read_file(&p).unwrap(), b"old contents");
            let names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(names, vec!["model.pm".to_string()], "{names:?}");
        }
        // Once space frees up the same write succeeds.
        write_atomic(&p, b"new contents that do not fit").unwrap();
        assert_eq!(read_file(&p).unwrap(), b"new contents that do not fit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_to_missing_directory_is_io_error() {
        let _guard = crate::faults::test_lock();
        let err = write_atomic("/nonexistent-dir-pm/file.bin", b"x").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
    }

    #[test]
    fn sealed_save_and_load() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("sealed");
        let p = dir.join("model.pm");
        save_sealed(&p, b"{\"rules\":[]}").unwrap();
        let (payload, prov) = load_model_file(&p).unwrap();
        assert_eq!(payload, b"{\"rules\":[]}");
        assert_eq!(prov, Provenance::Sealed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_messages_name_the_failure() {
        let _guard = crate::faults::test_lock();
        let e = StoreError::Truncated {
            expected: 100,
            found: 7,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("100") && msg.contains('7') && msg.contains("torn"),
            "{msg}"
        );
        let e = StoreError::ChecksumMismatch {
            expected: 0xdeadbeef,
            found: 0x12345678,
        };
        assert!(e.to_string().contains("0xdeadbeef"), "{e}");
    }
}
