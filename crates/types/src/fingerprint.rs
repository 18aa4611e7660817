//! Chunk fingerprints.
//!
//! The paper fingerprints every chunk with a cryptographically secure hash
//! (SHA-1, §II). Two chunks are considered identical iff their fingerprints
//! are equal; the system never does byte-comparison of chunk payloads on the
//! dedup path.

use std::fmt;

/// Length in bytes of a fingerprint (SHA-1 digest size).
pub const FINGERPRINT_LEN: usize = 20;

/// A 160-bit chunk fingerprint.
///
/// Ordered and hashable so it can key in-memory indexes and sort into SSTable
/// runs. The first eight bytes are used as a well-mixed 64-bit prefix for
/// sampling and bloom-filter hashing (SHA-1 output is uniform, so any fixed
/// prefix is unbiased).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub [u8; FINGERPRINT_LEN]);

impl Fingerprint {
    /// The all-zero fingerprint, used as a sentinel in fixed-width encodings.
    pub const ZERO: Fingerprint = Fingerprint([0u8; FINGERPRINT_LEN]);

    /// Construct from a raw digest.
    pub fn from_bytes(bytes: [u8; FINGERPRINT_LEN]) -> Self {
        Fingerprint(bytes)
    }

    /// Construct from a slice; returns `None` if the length is wrong.
    pub fn from_slice(slice: &[u8]) -> Option<Self> {
        if slice.len() != FINGERPRINT_LEN {
            return None;
        }
        let mut buf = [0u8; FINGERPRINT_LEN];
        buf.copy_from_slice(slice);
        Some(Fingerprint(buf))
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; FINGERPRINT_LEN] {
        &self.0
    }

    /// A 64-bit prefix of the digest, big-endian.
    ///
    /// Used for sampling (`prefix64() % R == 0`) and as the base hash for
    /// bloom filters.
    pub fn prefix64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("fingerprint >= 8 bytes"))
    }

    /// The random-sampling predicate used throughout the paper
    /// (fingerprints with `fp mod R == 0` are representative samples).
    ///
    /// `rate == 0` or `rate == 1` samples everything.
    pub fn is_sample(&self, rate: u64) -> bool {
        if rate <= 1 {
            return true;
        }
        self.prefix64() % rate == 0
    }

    /// Lowercase hex rendering of the full digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(FINGERPRINT_LEN * 2);
        for b in self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// Short hex rendering (first 8 hex chars) for logs and errors.
    pub fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({})", self.short_hex())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; FINGERPRINT_LEN]> for Fingerprint {
    fn from(bytes: [u8; FINGERPRINT_LEN]) -> Self {
        Fingerprint(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_with_prefix(prefix: u64) -> Fingerprint {
        let mut bytes = [0u8; FINGERPRINT_LEN];
        bytes[..8].copy_from_slice(&prefix.to_be_bytes());
        Fingerprint(bytes)
    }

    #[test]
    fn prefix64_roundtrip() {
        let fp = fp_with_prefix(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(fp.prefix64(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn sampling_rate_one_accepts_all() {
        for p in [0u64, 1, 7, u64::MAX] {
            assert!(fp_with_prefix(p).is_sample(1));
            assert!(fp_with_prefix(p).is_sample(0));
        }
    }

    #[test]
    fn sampling_mod_semantics() {
        assert!(fp_with_prefix(64).is_sample(64));
        assert!(!fp_with_prefix(65).is_sample(64));
        assert!(fp_with_prefix(0).is_sample(64));
    }

    #[test]
    fn hex_rendering() {
        let mut bytes = [0u8; FINGERPRINT_LEN];
        bytes[0] = 0xab;
        bytes[19] = 0x01;
        let fp = Fingerprint(bytes);
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 40);
        assert!(hex.starts_with("ab"));
        assert!(hex.ends_with("01"));
        assert_eq!(fp.short_hex(), "ab000000");
    }

    #[test]
    fn from_slice_validates_length() {
        assert!(Fingerprint::from_slice(&[0u8; 19]).is_none());
        assert!(Fingerprint::from_slice(&[0u8; 21]).is_none());
        let fp = Fingerprint::from_slice(&[7u8; 20]).unwrap();
        assert_eq!(fp.as_bytes(), &[7u8; 20]);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Fingerprint::from_slice(&[0u8; 20]).unwrap();
        let mut high = [0u8; 20];
        high[0] = 1;
        let b = Fingerprint(high);
        assert!(a < b);
    }
}
