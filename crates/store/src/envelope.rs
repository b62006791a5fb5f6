//! The checksummed, versioned envelope (models and checkpoints).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"PMDL" (models) or b"PMCK" (checkpoints)
//!      4     4  format version (u32, currently 1)
//!      8     8  payload length (u64)
//!     16     4  CRC-32/IEEE of the payload (u32)
//!     20     …  payload bytes
//! ```
//!
//! [`open`] verifies magic, version, declared length against actual
//! length (catching both truncation and trailing bytes), and the CRC —
//! in that order, so the reported error names the *outermost* thing
//! wrong with the file. Sealing the same payload always produces the
//! same bytes, so enveloped model files stay byte-deterministic.
//!
//! The checkpoint format ([`crate::checkpoint`]) reuses this exact
//! header via [`seal_with_magic`]/[`open_with_magic`] — same version
//! rules, same corruption taxonomy, different magic — so there is one
//! envelope implementation, not two that drift apart.

use crate::StoreError;

/// The four magic bytes every enveloped file starts with.
pub const MAGIC: [u8; 4] = *b"PMDL";

/// The envelope format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Total header size in bytes (magic + version + length + CRC).
pub const HEADER_LEN: usize = 20;

/// CRC-32 (IEEE 802.3, the `cksum`/zlib polynomial), bitwise-reflected,
/// computed over the payload only. Slicing-by-8: each step folds eight
/// bytes through eight tables, where `TABLES[k][b]` is the CRC state
/// after byte `b` and then `k` zero bytes; the last `len % 8` bytes go
/// one at a time through `TABLES[0]`, the bytewise definition.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let t = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [crc32_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Wrap `payload` in a sealed model (`PMDL`) envelope.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    seal_with_magic(MAGIC, payload)
}

/// Wrap `payload` in a sealed envelope under an arbitrary magic. The
/// header layout and version are identical to [`seal`]; only the first
/// four bytes differ.
pub fn seal_with_magic(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a model (`PMDL`) envelope and return the payload slice.
///
/// Checks, in order: enough bytes for a header, magic, version,
/// declared-vs-actual payload length (short ⇒ [`StoreError::Truncated`],
/// long ⇒ [`StoreError::TrailingBytes`]), and finally the CRC.
pub fn open(bytes: &[u8]) -> Result<&[u8], StoreError> {
    open_with_magic(MAGIC, bytes)
}

/// [`open`] under an arbitrary magic — the shared validation behind
/// both model and checkpoint files.
pub fn open_with_magic(magic: [u8; 4], bytes: &[u8]) -> Result<&[u8], StoreError> {
    if bytes.is_empty() {
        // A zero-byte file is its own failure mode (placeholder touch,
        // or truncation to nothing) — clearer than a generic short read.
        return Err(StoreError::Empty);
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::TooShort { found: bytes.len() });
    }
    let found_magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if found_magic != magic {
        return Err(StoreError::BadMagic { found: found_magic });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version == 0 || version > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte slice"));
    let payload = &bytes[HEADER_LEN..];
    let actual = payload.len() as u64;
    if actual < declared {
        return Err(StoreError::Truncated {
            expected: declared,
            found: actual,
        });
    }
    if actual > declared {
        return Err(StoreError::TrailingBytes {
            expected: declared,
            found: actual,
        });
    }
    let found_crc = crc32(payload);
    if found_crc != stored_crc {
        return Err(StoreError::ChecksumMismatch {
            expected: stored_crc,
            found: found_crc,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        let _guard = crate::faults::test_lock();
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]

        /// Every length 0–4,096 at every start offset mod 8 (so every
        /// split between 8-byte steps and the bytewise tail) agrees with
        /// the bytewise definition, one byte per table lookup.
        #[test]
        fn slicing_by_8_matches_the_bytewise_definition(
            buf in proptest::collection::vec(proptest::num::u8::ANY, 4096 + 8),
        ) {
            let table = crc32_table();
            for start in 0..8 {
                let mut state = 0xffff_ffffu32;
                for len in 0..=4096 {
                    let bytes = &buf[start..start + len];
                    let (got, want) = (crc32(bytes), !state);
                    proptest::prop_assert!(got == want, "start {start} len {len}: {got:#x} != {want:#x}");
                    let b = buf[start + len];
                    state = (state >> 8) ^ table[((state ^ b as u32) & 0xff) as usize];
                }
            }
        }
    }

    #[test]
    fn seal_open_round_trip_is_byte_deterministic() {
        let _guard = crate::faults::test_lock();
        for payload in [b"".as_slice(), b"x", b"{\"rules\":[1,2,3]}"] {
            let sealed = seal(payload);
            assert_eq!(sealed, seal(payload), "sealing must be deterministic");
            assert_eq!(open(&sealed).unwrap(), payload);
        }
    }

    #[test]
    fn header_layout_is_stable() {
        let _guard = crate::faults::test_lock();
        let sealed = seal(b"abc");
        assert_eq!(&sealed[0..4], b"PMDL");
        assert_eq!(u32::from_le_bytes(sealed[4..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(sealed[8..16].try_into().unwrap()), 3);
        assert_eq!(sealed.len(), HEADER_LEN + 3);
    }

    #[test]
    fn rejects_every_header_corruption() {
        let _guard = crate::faults::test_lock();
        let sealed = seal(b"payload-bytes");
        // Too short to even hold a header.
        assert_eq!(
            open(&sealed[..HEADER_LEN - 1]).unwrap_err(),
            StoreError::TooShort {
                found: HEADER_LEN - 1
            }
        );
        // Wrong magic.
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert!(matches!(
            open(&bad).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        // Future (and zero) versions refuse to parse.
        let mut bad = sealed.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            open(&bad).unwrap_err(),
            StoreError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
        let mut bad = sealed.clone();
        bad[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            open(&bad).unwrap_err(),
            StoreError::UnsupportedVersion { found: 0, .. }
        ));
        // Truncated payload.
        assert_eq!(
            open(&sealed[..sealed.len() - 4]).unwrap_err(),
            StoreError::Truncated {
                expected: 13,
                found: 9
            }
        );
        // Trailing bytes.
        let mut bad = sealed.clone();
        bad.push(0);
        assert_eq!(
            open(&bad).unwrap_err(),
            StoreError::TrailingBytes {
                expected: 13,
                found: 14
            }
        );
        // Flipped payload bit.
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            open(&bad).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn future_version_error_names_both_versions() {
        let _guard = crate::faults::test_lock();
        // A v1 reader handed v2 bytes must say what it found *and* what
        // it can read, so the operator knows which side to upgrade.
        let mut v2 = seal(b"future payload");
        v2[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = open(&v2).unwrap_err();
        assert_eq!(
            err,
            StoreError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains(&(FORMAT_VERSION + 1).to_string())
                && msg.contains(&FORMAT_VERSION.to_string()),
            "error must name both the found and the supported version: {msg}"
        );
    }

    #[test]
    fn magic_parameterized_seal_open_round_trips_and_cross_rejects() {
        let _guard = crate::faults::test_lock();
        let ck = *b"PMCK";
        let sealed = seal_with_magic(ck, b"checkpoint payload");
        // Same header layout, different magic, same payload validation.
        assert_eq!(open_with_magic(ck, &sealed).unwrap(), b"checkpoint payload");
        assert_eq!(&sealed[4..], &seal(b"checkpoint payload")[4..]);
        // A model reader must not open a checkpoint, and vice versa.
        assert!(matches!(
            open(&sealed).unwrap_err(),
            StoreError::BadMagic { found } if found == ck
        ));
        assert!(matches!(
            open_with_magic(ck, &seal(b"checkpoint payload")).unwrap_err(),
            StoreError::BadMagic { found } if found == MAGIC
        ));
    }
}
