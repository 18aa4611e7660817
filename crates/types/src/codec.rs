//! Minimal checked binary codec.
//!
//! Everything persisted to the object store (recipes, recipe indexes,
//! container metadata, version manifests) is encoded with these helpers.
//! Encodings are little-endian, length-prefixed where variable, and carry a
//! magic + format version so corruption and incompatible upgrades fail loudly
//! instead of decoding garbage.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{Result, SlimError};
use crate::fingerprint::{Fingerprint, FINGERPRINT_LEN};

/// A reader over an encoded buffer that validates every read.
pub struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Wrap `buf`; `what` names the structure being decoded for errors.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, what }
    }

    fn ensure(&self, n: usize) -> Result<()> {
        if self.buf.remaining() < n {
            return Err(SlimError::corrupt(
                self.what,
                format!("needed {n} more bytes, {} remain", self.buf.remaining()),
            ));
        }
        Ok(())
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Decode a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        self.ensure(1)?;
        Ok(self.buf.get_u8())
    }

    /// Decode a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.ensure(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Decode a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.ensure(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Decode an `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        self.ensure(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Decode a fingerprint.
    pub fn fingerprint(&mut self) -> Result<Fingerprint> {
        self.ensure(FINGERPRINT_LEN)?;
        let mut bytes = [0u8; FINGERPRINT_LEN];
        self.buf.copy_to_slice(&mut bytes);
        Ok(Fingerprint(bytes))
    }

    /// Decode a `u32` element count for a sequence whose elements each
    /// encode to at least `min_item_bytes` (> 0). A count the rest of the
    /// buffer cannot possibly hold is corruption, reported before the caller
    /// sizes a collection from it: untrusted input never allocates more than
    /// a small multiple of its own length.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_item_bytes {
            return Err(SlimError::corrupt(
                self.what,
                format!(
                    "count {n} needs at least {min_item_bytes} bytes each, {} remain",
                    self.remaining()
                ),
            ));
        }
        Ok(n)
    }

    /// Decode a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        self.ensure(len)?;
        let mut out = vec![0u8; len];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    /// Decode a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw)
            .map_err(|e| SlimError::corrupt(self.what, format!("invalid utf-8: {e}")))
    }

    /// Check a 4-byte magic and a format version byte.
    pub fn expect_header(&mut self, magic: &[u8; 4], version: u8) -> Result<()> {
        let v = self.sniff_header(magic)?;
        if v != version {
            return Err(SlimError::corrupt(
                self.what,
                format!("unsupported format version {v}, expected {version}"),
            ));
        }
        Ok(())
    }

    /// Check a 4-byte magic and return the format version byte, for
    /// structures that accept more than one on-disk version. The caller
    /// decides which versions it can decode; an unexpected version is its
    /// corruption error to raise, with the context only it has.
    pub fn sniff_header(&mut self, magic: &[u8; 4]) -> Result<u8> {
        self.ensure(5)?;
        let mut got = [0u8; 4];
        self.buf.copy_to_slice(&mut got);
        if &got != magic {
            return Err(SlimError::corrupt(
                self.what,
                format!("bad magic {got:02x?}, expected {magic:02x?}"),
            ));
        }
        Ok(self.buf.get_u8())
    }

    /// Error unless the buffer is fully consumed.
    pub fn finish(self) -> Result<()> {
        if self.buf.remaining() != 0 {
            return Err(SlimError::corrupt(
                self.what,
                format!("{} trailing bytes", self.buf.remaining()),
            ));
        }
        Ok(())
    }
}

/// A writer producing an encoded buffer.
#[derive(Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Self {
        Writer {
            buf: BytesMut::new(),
        }
    }

    /// New writer with a 4-byte magic and format version byte.
    pub fn with_header(magic: &[u8; 4], version: u8) -> Self {
        let mut w = Writer::new();
        w.buf.put_slice(magic);
        w.buf.put_u8(version);
        w
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Append an `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Append a fingerprint.
    pub fn fingerprint(&mut self, fp: &Fingerprint) -> &mut Self {
        self.buf.put_slice(fp.as_bytes());
        self
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and return the encoded buffer.
    pub fn freeze(self) -> Bytes {
        self.buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::with_header(b"TEST", 1);
        w.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX).f64(0.25);
        w.string("hello").bytes(&[1, 2, 3]);
        let fp = Fingerprint::from_slice(&[9u8; 20]).unwrap();
        w.fingerprint(&fp);
        let buf = w.freeze();

        let mut r = Reader::new(&buf, "test");
        r.expect_header(b"TEST", 1).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.string().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.fingerprint().unwrap(), fp);
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let w = Writer::with_header(b"AAAA", 1);
        let buf = w.freeze();
        let mut r = Reader::new(&buf, "test");
        assert!(r.expect_header(b"BBBB", 1).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let w = Writer::with_header(b"AAAA", 2);
        let buf = w.freeze();
        let mut r = Reader::new(&buf, "test");
        assert!(r.expect_header(b"AAAA", 1).is_err());
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u64(42);
        let buf = w.freeze();
        let mut r = Reader::new(&buf[..4], "test");
        assert!(r.u64().is_err());
    }

    #[test]
    fn count_is_bounded_by_what_remains() {
        let mut w = Writer::new();
        w.u32(3).u64(1).u64(2).u64(3);
        let buf = w.freeze();
        assert_eq!(Reader::new(&buf, "test").count(8).unwrap(), 3);
        assert!(Reader::new(&buf, "test").count(9).is_err());
        let mut w = Writer::new();
        w.u32(u32::MAX).u64(0);
        assert!(Reader::new(&w.freeze(), "test").count(1).is_err());
        assert!(Reader::new(&[0, 0], "test").count(1).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u32(1).u8(0);
        let buf = w.freeze();
        let mut r = Reader::new(&buf, "test");
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.freeze();
        let mut r = Reader::new(&buf, "test");
        assert!(r.string().is_err());
    }
}
