//! The `PMCK` checkpoint container and the recovery decision rule.
//!
//! A checkpoint is an opaque payload (the serving layer puts the stream
//! position, the dataset and the incremental miner's caches in it) sealed
//! under the **same** envelope as model files — [`crate::envelope`]'s
//! header with the `PMCK` magic instead of `PMDL`, via
//! [`crate::envelope::seal_with_magic`]. One envelope implementation,
//! two magics: a checkpoint torn, truncated, bit-flipped, or written by
//! a future build surfaces as exactly the same typed [`StoreError`]s a
//! model file would, and a model file handed to the checkpoint loader
//! (or vice versa) is a [`StoreError::BadMagic`], never a silent parse.
//!
//! Recovery lines a checkpoint up against the sales log with
//! [`plan_replay`]: given the stream position the checkpoint covers and
//! the log's self-described base (see [`crate::log`]), it returns how
//! many leading log records the checkpoint already covers — or a typed
//! mismatch error when the two files cannot belong to the same stream.

use crate::{envelope, StoreError};
use std::path::Path;

/// The four magic bytes every checkpoint file starts with.
pub const MAGIC: [u8; 4] = *b"PMCK";

/// Write `payload` to `path` as a sealed `PMCK` checkpoint, atomically
/// (write-temp → fsync → rename → fsync-dir). A crash at any instant
/// leaves either the complete previous checkpoint or the complete new
/// one — never a torn file.
pub fn save(path: impl AsRef<Path>, payload: &[u8]) -> Result<(), StoreError> {
    crate::write_atomic(path, &envelope::seal_with_magic(MAGIC, payload))
}

/// Load and verify a checkpoint: magic, version, declared length, CRC.
/// Every corruption class is the same typed error the model envelope
/// reports, so operators diagnose both file kinds with one taxonomy.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<u8>, StoreError> {
    let bytes = crate::read_file(path)?;
    envelope::open_with_magic(MAGIC, &bytes).map(|p| p.to_vec())
}

/// The recovery decision rule: how many leading log records does the
/// checkpoint already cover?
///
/// `checkpoint_pos` is the absolute stream position the checkpoint
/// covers up to; the log holds `log_records` records starting at
/// absolute index `log_base`. Returns the count of leading records to
/// **skip** — replay starts at the record after them. The two mismatch
/// cases are typed, not guessed at:
///
/// * `checkpoint_pos < log_base` — the log was compacted past the
///   checkpoint; the records recovery needs are gone
///   ([`StoreError::StaleCheckpoint`]);
/// * `checkpoint_pos > log_base + log_records` — the checkpoint claims
///   records the log does not hold; the log was truncated or swapped
///   ([`StoreError::CheckpointAheadOfLog`]).
pub fn plan_replay(
    checkpoint_pos: u64,
    log_base: u64,
    log_records: u64,
) -> Result<usize, StoreError> {
    if checkpoint_pos < log_base {
        return Err(StoreError::StaleCheckpoint {
            checkpoint_pos,
            log_base,
        });
    }
    let log_end = log_base + log_records;
    if checkpoint_pos > log_end {
        return Err(StoreError::CheckpointAheadOfLog {
            checkpoint_pos,
            log_end,
        });
    }
    Ok((checkpoint_pos - log_base) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pm-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn save_load_round_trips_and_is_byte_deterministic() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("rt");
        let p = dir.join("state.ckpt");
        save(&p, b"{\"stream_pos\":7}").unwrap();
        let first = std::fs::read(&p).unwrap();
        assert_eq!(load(&p).unwrap(), b"{\"stream_pos\":7}");
        assert_eq!(&first[0..4], b"PMCK");
        save(&p, b"{\"stream_pos\":7}").unwrap();
        assert_eq!(
            std::fs::read(&p).unwrap(),
            first,
            "sealing is deterministic"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_reuses_envelope_validation_not_a_fork() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("reuse");
        let p = dir.join("state.ckpt");
        save(&p, b"payload").unwrap();
        // Byte-for-byte, a checkpoint is a model envelope with a
        // different magic — the header math is the shared code path.
        let on_disk = std::fs::read(&p).unwrap();
        let model = envelope::seal(b"payload");
        assert_eq!(&on_disk[4..], &model[4..]);
        // A v1 reader handed v2 checkpoint bytes rejects them with the
        // same both-versions error the model envelope reports.
        let mut v2 = on_disk.clone();
        v2[4..8].copy_from_slice(&(envelope::FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&p, &v2).unwrap();
        assert_eq!(
            load(&p).unwrap_err(),
            StoreError::UnsupportedVersion {
                found: envelope::FORMAT_VERSION + 1,
                supported: envelope::FORMAT_VERSION
            }
        );
        // Corruption classes match the model taxonomy.
        std::fs::write(&p, &on_disk[..on_disk.len() - 2]).unwrap();
        assert!(matches!(
            load(&p).unwrap_err(),
            StoreError::Truncated { .. }
        ));
        let mut flipped = on_disk.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&p, &flipped).unwrap();
        assert!(matches!(
            load(&p).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        // A model file is not a checkpoint.
        std::fs::write(&p, envelope::seal(b"payload")).unwrap();
        assert!(matches!(
            load(&p).unwrap_err(),
            StoreError::BadMagic { found } if found == envelope::MAGIC
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_decision_table() {
        let _guard = crate::faults::test_lock();
        // (checkpoint_pos, log_base, log_records) → skip or typed error.
        assert_eq!(plan_replay(0, 0, 0).unwrap(), 0); // fresh everything
        assert_eq!(plan_replay(0, 0, 5).unwrap(), 0); // full replay
        assert_eq!(plan_replay(3, 0, 5).unwrap(), 3); // tail replay
        assert_eq!(plan_replay(5, 0, 5).unwrap(), 5); // nothing to replay
        assert_eq!(plan_replay(7, 3, 6).unwrap(), 4); // compacted log
        assert_eq!(plan_replay(3, 3, 0).unwrap(), 0); // checkpoint == base
        assert_eq!(
            plan_replay(2, 3, 4).unwrap_err(),
            StoreError::StaleCheckpoint {
                checkpoint_pos: 2,
                log_base: 3
            }
        );
        assert_eq!(
            plan_replay(8, 3, 4).unwrap_err(),
            StoreError::CheckpointAheadOfLog {
                checkpoint_pos: 8,
                log_end: 7
            }
        );
    }
}
