//! Crash-safety matrix for the append-only sales log, mirroring
//! `corruption_matrix.rs`: torn final records at exact byte offsets,
//! bit-flipped CRCs, truncation at every interesting offset, and
//! replay-after-crash idempotence — all driven through the
//! deterministic `pm_store::faults` hooks. The hooks are process-global,
//! so every test holds `faults::test_lock()` for its whole body.

use pm_store::log::{Recovery, SalesLog, HEADER_LEN, RECORD_HEADER_LEN};
use pm_store::{faults, StoreError};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pm-log-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

const BATCH_1: &[u8] = br#"[{"sales":[[1,0,2]],"target":[9,1,1]}]"#;
const BATCH_2: &[u8] = br#"[{"sales":[[2,1,1],[3,0,4]],"target":[9,0,2]}]"#;

fn seeded_log(dir: &std::path::Path) -> PathBuf {
    let p = dir.join("sales.log");
    let (log, _) = SalesLog::open(&p).unwrap();
    log.append(BATCH_1).unwrap();
    log.append(BATCH_2).unwrap();
    p
}

fn replay(p: &std::path::Path) -> Recovery {
    SalesLog::open(p).unwrap().1
}

/// A crash at any byte offset inside an append damages only the tail:
/// reopening truncates the torn record and keeps every prior batch.
#[test]
fn torn_final_record_recovers_to_the_previous_batch() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("torn");
    let p = seeded_log(&dir);
    let clean_len = std::fs::metadata(&p).unwrap().len();

    let batch_3 = br#"[{"sales":[[4,0,1]],"target":[9,1,3]}]"#;
    // Offsets: nothing durable, 1 byte of the length field, the exact
    // record-header boundary, and mid-payload.
    for k in [0usize, 1, RECORD_HEADER_LEN, RECORD_HEADER_LEN + 5] {
        faults::set_torn_write_at(Some(k));
        let (log, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(rec.records.len(), 2, "offset {k}");
        let err = log.append(batch_3).expect_err("torn append must error");
        assert!(err.to_string().contains("torn write"), "{err}");
        faults::set_torn_write_at(None);

        // Replay after the crash: both seeded batches survive; the torn
        // tail (the k bytes that landed) is measured and dropped.
        let rec = replay(&p);
        assert_eq!(rec.records, vec![BATCH_1.to_vec(), BATCH_2.to_vec()]);
        assert_eq!(rec.truncated_bytes, k as u64);
        assert_eq!(std::fs::metadata(&p).unwrap().len(), clean_len);

        // Idempotent retry: appending the batch again lands it exactly
        // once.
        let (log, _) = SalesLog::open(&p).unwrap();
        log.append(batch_3).unwrap();
        let rec = replay(&p);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[2], batch_3);

        // Reset the log to the two-batch state for the next offset.
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(clean_len).unwrap();
        f.sync_all().unwrap();
    }

    // A tear *past* the final byte (1 << 40) persisted the whole record
    // before the crash: the ack was lost, not the data — replay sees a
    // complete third record and truncates nothing. Classic at-least-once
    // tail: the ingest layer above dedups by replaying the log, never by
    // blind re-append.
    faults::set_torn_write_at(Some(1 << 40));
    let (log, _) = SalesLog::open(&p).unwrap();
    log.append(batch_3).unwrap_err();
    faults::set_torn_write_at(None);
    let rec = replay(&p);
    assert_eq!(rec.records.len(), 3, "complete-but-unacked record survives");
    assert_eq!(rec.records[2], batch_3);
    assert_eq!(rec.truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncation at five interesting offsets: empty file, inside the file
/// header, at the header boundary, inside a record header, and
/// mid-payload. Header damage is a typed error; record damage recovers
/// by truncation.
#[test]
fn truncation_at_every_offset() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("trunc");
    let p = seeded_log(&dir);
    let full = std::fs::read(&p).unwrap();
    let rec1_end = HEADER_LEN + RECORD_HEADER_LEN + BATCH_1.len();

    // (offset, expected recovered record count, or None for an error)
    let cases: &[(usize, Option<usize>)] = &[
        (0, None),                                   // empty → StoreError::Empty
        (3, None),                                   // torn file header → TooShort
        (HEADER_LEN, Some(0)),                       // clean header, no records
        (HEADER_LEN + 5, Some(0)),                   // torn first record header
        (rec1_end + RECORD_HEADER_LEN + 7, Some(1)), // mid-payload of record 2
    ];
    for &(k, expect) in cases {
        let torn = dir.join(format!("torn-{k}.log"));
        std::fs::write(&torn, &full[..k]).unwrap();
        match expect {
            None => {
                let err = SalesLog::open(&torn).expect_err("header damage must error");
                if k == 0 {
                    assert!(matches!(err, StoreError::Empty), "{err:?}");
                } else {
                    assert!(matches!(err, StoreError::TooShort { found } if found == k));
                }
            }
            Some(n) => {
                let (_, rec) = SalesLog::open(&torn).unwrap();
                assert_eq!(rec.records.len(), n, "truncation at {k}");
                assert_eq!(
                    rec.truncated_bytes as usize,
                    k - HEADER_LEN
                        - if n == 1 {
                            RECORD_HEADER_LEN + BATCH_1.len()
                        } else {
                            0
                        }
                );
                // Truncation is physical: the torn bytes are gone and a
                // second open is clean.
                let (_, rec2) = SalesLog::open(&torn).unwrap();
                assert_eq!(rec2.records.len(), n);
                assert_eq!(rec2.truncated_bytes, 0);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A *complete* record whose payload no longer matches its CRC is media
/// corruption, not a torn append — replay refuses it with a typed error
/// rather than silently dropping or resurrecting the batch.
#[test]
fn bit_flipped_crc_is_a_checksum_mismatch() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("flip");
    let p = seeded_log(&dir);
    // Flip one payload byte of the *first* record (deep in the file, so
    // it cannot be mistaken for a torn tail).
    let payload_start = HEADER_LEN + RECORD_HEADER_LEN;
    for offset in [payload_start, payload_start + BATCH_1.len() / 2] {
        faults::set_corrupt_byte_at(Some(offset));
        let err = SalesLog::open(&p).expect_err("bit flip must not replay");
        let StoreError::ChecksumMismatch { expected, found } = err else {
            panic!("flip at {offset}: unexpected error {err:?}");
        };
        assert_ne!(expected, found);
    }
    // Flipping the stored CRC itself (record header) is equally fatal.
    faults::set_corrupt_byte_at(Some(HEADER_LEN + 4));
    assert!(matches!(
        SalesLog::open(&p).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));
    // Fault off: the disk bytes were never touched.
    faults::set_corrupt_byte_at(None);
    assert_eq!(replay(&p).records.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay-after-crash idempotence under the fault hooks: crash an
/// append, recover, re-append, and the log holds each batch exactly
/// once — repeatedly.
#[test]
fn replay_after_crash_is_idempotent() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("idem");
    let p = dir.join("sales.log");
    SalesLog::open(&p).unwrap();

    let batches: Vec<Vec<u8>> = (0..4)
        .map(|i| format!("[{{\"batch\":{i}}}]").into_bytes())
        .collect();
    for (i, batch) in batches.iter().enumerate() {
        // First attempt tears mid-record-header; nothing durable.
        faults::set_torn_write_at(Some(3));
        let (log, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(rec.records.len(), i, "pre-crash state before batch {i}");
        log.append(batch).unwrap_err();
        faults::set_torn_write_at(None);
        // Recovery drops the torn tail; the retry lands the batch once.
        let (log, rec) = SalesLog::open(&p).unwrap();
        assert_eq!(rec.records.len(), i);
        assert_eq!(rec.truncated_bytes, 3);
        log.append(batch).unwrap();
    }
    assert_eq!(replay(&p).records, batches);
    std::fs::remove_dir_all(&dir).ok();
}

/// The short-read hook models a log truncated on disk: replay under the
/// hook sees exactly the prefix records, and clearing the hook restores
/// the full log (the file itself was never rewritten).
#[test]
fn short_read_models_truncation_without_rewriting() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("short");
    let p = seeded_log(&dir);
    let rec1_end = HEADER_LEN + RECORD_HEADER_LEN + BATCH_1.len();
    faults::set_short_read_at(Some(rec1_end + 3));
    // NB: open() truncates what it believes is a torn tail — use a copy
    // so the original stays intact for the post-hook assertion.
    let copy = dir.join("copy.log");
    std::fs::copy(&p, &copy).unwrap();
    let (_, rec) = SalesLog::open(&copy).unwrap();
    assert_eq!(rec.records, vec![BATCH_1.to_vec()]);
    faults::set_short_read_at(None);
    assert_eq!(replay(&p).records.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}
