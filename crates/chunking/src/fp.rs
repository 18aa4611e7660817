//! SHA-1 chunk fingerprinting.
//!
//! The paper fingerprints chunks with a cryptographically secure hash so
//! collisions can be neglected (§II). The hash is the in-tree `sha1` module:
//! the SHA extensions when the CPU has them, a portable FIPS 180-4 loop
//! otherwise — which of the two ran decides the CPU-time breakdown of
//! Fig 2 / Fig 5(d).

use crate::sha1;
use slim_types::Fingerprint;

/// Fingerprint a chunk payload.
pub fn fingerprint(data: &[u8]) -> Fingerprint {
    Fingerprint::from_bytes(sha1::digest(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard SHA-1 test vectors.
        assert_eq!(
            fingerprint(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            fingerprint(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            fingerprint(b"The quick brown fox jumps over the lazy dog").to_hex(),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn deterministic_and_distinguishing() {
        let a = fingerprint(b"hello world");
        let b = fingerprint(b"hello world");
        let c = fingerprint(b"hello worle");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
