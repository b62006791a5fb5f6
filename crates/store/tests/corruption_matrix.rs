//! The corruption matrix: every way a model file can rot on disk must
//! surface as the *right* typed [`StoreError`] with a message naming the
//! failure — and an intact file must round-trip byte-identically.
//!
//! Fault injection is deterministic (`pm_store::faults` fires at exact
//! byte offsets), so each row of the matrix is a fixed, reproducible
//! scenario, not a fuzz roll. The hooks are process-global, so every
//! test holds `faults::test_lock()` for its whole body.

use pm_store::envelope::{self, FORMAT_VERSION, HEADER_LEN};
use pm_store::{faults, load_model_file, read_file, save_sealed, write_atomic, StoreError};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pm-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

const PAYLOAD: &[u8] = br#"{"rules":[{"item":3,"code":0}],"note":"corruption matrix"}"#;

#[test]
fn good_file_round_trips_byte_identically() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("good");
    let p = dir.join("model.pm");
    save_sealed(&p, PAYLOAD).unwrap();
    // The sealed bytes are deterministic: header + payload, no more.
    let on_disk = std::fs::read(&p).unwrap();
    assert_eq!(on_disk, envelope::seal(PAYLOAD));
    assert_eq!(on_disk.len(), HEADER_LEN + PAYLOAD.len());
    // And the load path returns the exact payload bytes.
    let (payload, prov) = load_model_file(&p).unwrap();
    assert_eq!(payload, PAYLOAD);
    assert_eq!(prov, pm_store::Provenance::Sealed);
    // Sealing the same payload twice produces identical files.
    let p2 = dir.join("model2.pm");
    save_sealed(&p2, PAYLOAD).unwrap();
    assert_eq!(std::fs::read(&p2).unwrap(), on_disk);
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncation at every interesting offset: inside the magic, inside the
/// header, at the payload boundary, and mid-payload. Each length maps to
/// a specific error, never a successful load.
#[test]
fn truncation_at_every_offset_is_detected() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("trunc");
    let p = dir.join("model.pm");
    save_sealed(&p, PAYLOAD).unwrap();
    let full = std::fs::read(&p).unwrap().len();

    type ErrorCheck = fn(&StoreError) -> bool;
    let cases: &[(usize, ErrorCheck)] = &[
        // 0 bytes: its own variant — "empty placeholder", not a torn
        // header.
        (0, |e| matches!(e, StoreError::Empty)),
        // 2 bytes: a prefix of the magic — still TooShort, not BadMagic,
        // because no full header is present to judge.
        (2, |e| matches!(e, StoreError::TooShort { found: 2 })),
        // Full magic but a torn header.
        (HEADER_LEN - 1, |e| matches!(e, StoreError::TooShort { .. })),
        // Complete header, zero payload bytes.
        (HEADER_LEN, |e| {
            matches!(e, StoreError::Truncated { found: 0, .. })
        }),
        // Mid-payload tear.
        (HEADER_LEN + 11, |e| {
            matches!(e, StoreError::Truncated { found: 11, .. })
        }),
    ];
    for &(k, check) in cases {
        faults::set_short_read_at(Some(k));
        let err = load_model_file(&p).expect_err("truncated file must not load");
        assert!(check(&err), "truncation at {k}: unexpected error {err:?}");
        // The message is operator-readable, not a Debug dump.
        assert!(!err.to_string().is_empty());
    }
    faults::set_short_read_at(None);
    assert_eq!(load_model_file(&p).unwrap().0, PAYLOAD);

    // The same tears written to disk for real (no read hook) behave
    // identically — the hook faithfully models actual truncation.
    for k in [0, 2, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 11] {
        let torn = dir.join(format!("torn-{k}.pm"));
        std::fs::write(&torn, &std::fs::read(&p).unwrap()[..k]).unwrap();
        load_model_file(&torn).expect_err("on-disk truncation must not load");
    }
    assert!(full > HEADER_LEN + 11);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("flip");
    let p = dir.join("model.pm");
    save_sealed(&p, PAYLOAD).unwrap();
    for offset in [
        HEADER_LEN,
        HEADER_LEN + PAYLOAD.len() / 2,
        HEADER_LEN + PAYLOAD.len() - 1,
    ] {
        faults::set_corrupt_byte_at(Some(offset));
        let err = load_model_file(&p).expect_err("bit-flipped payload must not load");
        let StoreError::ChecksumMismatch { expected, found } = err else {
            panic!("payload flip at {offset}: unexpected error {err:?}");
        };
        assert_ne!(expected, found);
    }
    // With the fault off the same file is fine — the disk bytes were
    // never touched.
    faults::set_corrupt_byte_at(None);
    assert_eq!(load_model_file(&p).unwrap().0, PAYLOAD);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_version_and_wrong_magic_are_typed_errors() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("header");
    let sealed = envelope::seal(PAYLOAD);

    // Future format version.
    let mut v2 = sealed.clone();
    v2[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let p = dir.join("v2.pm");
    write_atomic(&p, &v2).unwrap();
    let err = load_model_file(&p).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::UnsupportedVersion { found, supported }
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("version"), "{err}");

    // Version 0 is reserved (never written) and equally unreadable.
    let mut v0 = sealed.clone();
    v0[4..8].copy_from_slice(&0u32.to_le_bytes());
    let p = dir.join("v0.pm");
    write_atomic(&p, &v0).unwrap();
    assert!(matches!(
        load_model_file(&p).unwrap_err(),
        StoreError::UnsupportedVersion { found: 0, .. }
    ));

    // A wrong magic is BadMagic, from the envelope and from a model
    // file alike: every model file is an envelope.
    let mut bad = sealed;
    bad[0] = b'X';
    let p = dir.join("xmdl.pm");
    write_atomic(&p, &bad).unwrap();
    for err in [
        envelope::open(&bad).unwrap_err(),
        load_model_file(&p).unwrap_err(),
    ] {
        assert!(
            matches!(err, StoreError::BadMagic { found } if found == *b"XMDL"),
            "{err:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trailing_garbage_is_rejected() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("trailing");
    let mut doubled = envelope::seal(PAYLOAD);
    doubled.extend_from_slice(b"junk after the payload");
    let p = dir.join("doubled.pm");
    write_atomic(&p, &doubled).unwrap();
    let err = load_model_file(&p).unwrap_err();
    assert!(matches!(err, StoreError::TrailingBytes { .. }), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn write at any byte offset must leave the *target* untouched:
/// the crash happens in the temp file, the rename never runs.
#[test]
fn torn_write_never_damages_the_previous_file() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("torn-write");
    let p = dir.join("model.pm");
    save_sealed(&p, PAYLOAD).unwrap();
    let before = std::fs::read(&p).unwrap();

    let new_payload = br#"{"rules":[],"note":"replacement"}"#;
    // (1 << 40 exceeds any payload, so the last row tears "after the
    // final byte" — still before the rename, so still a crash.)
    for k in [0, 1, HEADER_LEN, HEADER_LEN + 5, 1 << 40] {
        faults::set_torn_write_at(Some(k));
        let err = save_sealed(&p, new_payload).expect_err("torn write must error");
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("torn write"), "{err}");
        // Old file intact, loadable, and no temp litter left behind.
        assert_eq!(std::fs::read(&p).unwrap(), before);
        assert_eq!(load_model_file(&p).unwrap().0, PAYLOAD);
        let extras: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != "model.pm")
            .collect();
        assert!(
            extras.is_empty(),
            "temp litter after torn write: {extras:?}"
        );
    }

    // Fault off: the replacement goes through and reads back exactly.
    faults::set_torn_write_at(None);
    save_sealed(&p, new_payload).unwrap();
    assert_eq!(load_model_file(&p).unwrap().0, new_payload);
    std::fs::remove_dir_all(&dir).ok();
}

/// Zero-length and directory targets are config mistakes with their own
/// variants, not generic I/O noise.
#[test]
fn empty_file_and_directory_have_typed_errors() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("typed");
    let p = dir.join("empty.pm");
    std::fs::write(&p, b"").unwrap();
    let err = load_model_file(&p).unwrap_err();
    assert!(matches!(err, StoreError::Empty), "{err:?}");
    assert!(err.to_string().contains("empty"), "{err}");

    let err = load_model_file(&dir).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::NotAFile {
                kind: "a directory",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("directory"), "{err}");

    let err = envelope::open(b"").unwrap_err();
    assert!(matches!(err, StoreError::Empty), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `/dev/zero` never ends and a FIFO without a writer never opens for a
/// blocking reader, so reading either used to hang or run out of memory.
/// Model, checkpoint and log loads now refuse every non-regular file up
/// front with a typed error.
#[cfg(target_os = "linux")]
#[test]
fn devices_and_fifos_are_typed_errors_not_endless_reads() {
    use pm_store::{checkpoint, log::SalesLog};
    let _guard = faults::test_lock();
    let dir = tmp_dir("special");
    let fifo = dir.join("fifo");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("run mkfifo");
    assert!(made.success(), "mkfifo failed");
    for path in [PathBuf::from("/dev/zero"), fifo] {
        let start = std::time::Instant::now();
        let errors = [
            load_model_file(&path).unwrap_err(),
            checkpoint::load(&path).unwrap_err(),
            SalesLog::open(&path).unwrap_err(),
            read_file(&path).unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(
                    err,
                    StoreError::NotAFile {
                        kind: "a device, FIFO or socket",
                        ..
                    }
                ),
                "{path:?}: {err:?}"
            );
            assert!(err.to_string().contains("not a regular file"), "{err}");
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "{path:?} took {:?}",
            start.elapsed()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The rename target's parent directory vanishing mid-write (concurrent
/// cleanup) must surface as a rename error with no temp litter — the
/// temp file went down with the directory.
#[test]
fn vanished_parent_mid_write_errors_without_litter() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("vanish");
    let p = dir.join("model.pm");
    faults::set_vanish_parent_before_rename(true);
    let err = write_atomic(&p, b"doomed").unwrap_err();
    assert!(
        matches!(err, StoreError::Io { op, .. } if op == "rename"),
        "{err:?}"
    );
    // The hook is one-shot: recreating the directory and retrying works,
    // and the recreated directory holds exactly the target — no litter.
    std::fs::create_dir_all(&dir).unwrap();
    write_atomic(&p, b"recovered").unwrap();
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec!["model.pm".to_string()], "{names:?}");
    assert_eq!(read_file(&p).unwrap(), b"recovered");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_delay_hook_slows_but_does_not_corrupt() {
    let _guard = faults::test_lock();
    let dir = tmp_dir("delay");
    let p = dir.join("model.pm");
    save_sealed(&p, PAYLOAD).unwrap();
    faults::set_read_delay_ms(30);
    let start = std::time::Instant::now();
    let bytes = read_file(&p).unwrap();
    assert!(start.elapsed() >= std::time::Duration::from_millis(30));
    assert_eq!(bytes, envelope::seal(PAYLOAD));
    std::fs::remove_dir_all(&dir).ok();
}
