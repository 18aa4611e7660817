//! Per-object CRC32 framing.
//!
//! Containers, container metadata, SSTables and G-node journal records are
//! the objects that maintenance rewrites in place on OSS; a crash or a
//! bit-flip there must never decode as plausible garbage. Every such object
//! carries an 8-byte trailer — a 4-byte magic plus the little-endian IEEE
//! CRC32 of the payload — appended *after* the payload so that offset-based
//! range reads (restore's container range reads, segment-recipe reads) are
//! unaffected: payload byte `i` still lives at object offset `i`.
//!
//! The polynomial is hand-rolled (reflected 0xEDB88320, the zlib/PNG/IEEE
//! 802.3 CRC) so the crate stays dependency-free. Every container read,
//! seal and scrub pays for it per byte, so the kernel is slicing-by-4 (the
//! zlib `BYFOUR` shape): four `const`-built 256-entry tables, four input
//! bytes per step, safe code and one path on every platform. Wider slicing
//! is faster per byte and was measured and left out on purpose — DESIGN.md
//! §10 has the numbers and the reason.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::{Result, SlimError};

/// Magic prefix of the checksum trailer.
pub const CRC_MAGIC: &[u8; 4] = b"SLCK";
/// Total trailer size: magic + little-endian CRC32.
pub const CRC_TRAILER_LEN: usize = 8;

/// Bytes consumed per step of the sliced kernel, and the number of tables.
const SLICES: usize = 4;

/// Slicing tables: `TABLES[0]` is the classic byte-at-a-time table and
/// `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes, so one step folds [`SLICES`] input bytes with [`SLICES`]
/// independent lookups (4 KiB in all, L1-resident).
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < SLICES {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// IEEE CRC32 of `data` (slicing-by-4 over one little-endian `u32` load per
/// step; the tail shorter than a step goes byte by byte).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(SLICES);
    for block in &mut blocks {
        let word = u32::from_le_bytes(block.try_into().expect("4 bytes")) ^ c;
        // Byte `j` of the block is followed by `3 - j` more block bytes.
        c = TABLES[3][word as usize & 0xFF]
            ^ TABLES[2][(word >> 8) as usize & 0xFF]
            ^ TABLES[1][(word >> 16) as usize & 0xFF]
            ^ TABLES[0][(word >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append the checksum trailer to `payload`, producing the framed object.
pub fn seal(payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + CRC_TRAILER_LEN);
    buf.put_slice(payload);
    buf.put_slice(CRC_MAGIC);
    buf.put_u32_le(crc32(payload));
    buf.freeze()
}

/// Validate the trailer of a framed object and return the payload length.
///
/// `what` names the object kind in [`SlimError::Corrupt`] reports. Errors if
/// the object is too short to carry a trailer, the magic is absent
/// (truncated or mis-framed object), or the checksum does not match the
/// payload (bit rot / torn write).
pub fn verified_payload_len(buf: &[u8], what: &'static str) -> Result<usize> {
    if buf.len() < CRC_TRAILER_LEN {
        return Err(SlimError::corrupt(
            what,
            format!(
                "object of {} bytes cannot carry a checksum trailer",
                buf.len()
            ),
        ));
    }
    let payload_len = buf.len() - CRC_TRAILER_LEN;
    let trailer = &buf[payload_len..];
    if &trailer[..4] != CRC_MAGIC {
        return Err(SlimError::corrupt(
            what,
            format!("missing checksum trailer magic {:02x?}", &trailer[..4]),
        ));
    }
    let stored = u32::from_le_bytes(trailer[4..8].try_into().expect("4 bytes"));
    let actual = crc32(&buf[..payload_len]);
    if stored != actual {
        return Err(SlimError::corrupt(
            what,
            format!("checksum mismatch: stored {stored:08x}, computed {actual:08x}"),
        ));
    }
    Ok(payload_len)
}

/// Validate the trailer and return the payload as a copy-free sub-slice of
/// the shared buffer.
pub fn unseal(buf: &Bytes, what: &'static str) -> Result<Bytes> {
    let n = verified_payload_len(buf, what)?;
    Ok(buf.slice(..n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC32 straight from the polynomial: shares no table
    /// with the kernel under test.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn noise(len: usize) -> Vec<u8> {
        crate::rng::bytes(7, len)
    }

    #[test]
    fn known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn matches_reference_at_every_length_and_offset() {
        // Every split between whole steps and the bytewise tail, at every
        // alignment of the first load.
        let buf = noise(16 + 257);
        for start in 0..16 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), reference(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn matches_reference_on_a_container_sized_buffer() {
        let buf = noise((4 << 20) + 5);
        assert_eq!(crc32(&buf), reference(&buf));
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"container payload bytes".as_slice();
        let framed = seal(payload);
        assert_eq!(framed.len(), payload.len() + CRC_TRAILER_LEN);
        // Payload offsets are preserved: byte i of the payload is byte i of
        // the framed object (range reads stay valid).
        assert_eq!(&framed[..payload.len()], payload);
        let back = unseal(&framed, "test").unwrap();
        assert_eq!(&back[..], payload);
    }

    #[test]
    fn empty_payload_frames() {
        let framed = seal(b"");
        assert_eq!(framed.len(), CRC_TRAILER_LEN);
        assert_eq!(unseal(&framed, "test").unwrap().len(), 0);
    }

    #[test]
    fn bit_flip_detected_anywhere() {
        let framed = seal(b"some payload worth protecting");
        for i in 0..framed.len() {
            let mut bad = framed.to_vec();
            bad[i] ^= 0x01;
            let err = verified_payload_len(&bad, "test").unwrap_err();
            assert!(
                matches!(err, SlimError::Corrupt { .. }),
                "flip at {i} must be detected"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let framed = seal(b"0123456789abcdef");
        for cut in 0..framed.len() {
            let err = verified_payload_len(&framed[..cut], "test").unwrap_err();
            assert!(matches!(err, SlimError::Corrupt { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn unframed_object_rejected() {
        // A legacy/foreign object without the trailer magic must be refused
        // rather than silently mis-sliced.
        let raw = vec![0xAAu8; 64];
        assert!(verified_payload_len(&raw, "test").is_err());
    }
}
