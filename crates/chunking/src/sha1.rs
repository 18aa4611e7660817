//! SHA-1 (FIPS 180-4), one-shot.
//!
//! [`digest`] is the whole API: [`crate::fingerprint`] is its only caller and
//! always holds the complete chunk, so there is no streaming state. Two
//! compression functions sit behind it — a portable one, and on x86-64 the
//! SHA extensions (`ni`), chosen per call from what the CPU reports. Both
//! consume whole 64-byte blocks; padding is done here, once, for either.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// Digest length in bytes.
const DIGEST_LEN: usize = 20;
/// Compression-function block length in bytes.
const BLOCK: usize = 64;

/// Initial hash value (FIPS 180-4 §5.3.1).
const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Folds a run of whole blocks (`blocks.len() % 64 == 0`) into the state.
type Compress = fn(&mut [u32; 5], &[u8]);

/// SHA-1 of `data`.
pub(crate) fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    digest_with(hardware().unwrap_or(compress_portable), data)
}

/// The hardware compression function, when this CPU has one.
fn hardware() -> Option<Compress> {
    #[cfg(target_arch = "x86_64")]
    return ni::detect();
    #[cfg(not(target_arch = "x86_64"))]
    return None;
}

fn digest_with(compress: Compress, data: &[u8]) -> [u8; DIGEST_LEN] {
    let (blocks, rest) = data.split_at(data.len() - data.len() % BLOCK);
    // The padded tail (§5.1.1): the leftover bytes, 0x80, zeros, and the
    // message length in bits as a big-endian u64 closing the last block —
    // one block when the leftover leaves room for the nine extra bytes, two
    // otherwise.
    let mut tail = [0u8; 2 * BLOCK];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() + 9 <= BLOCK {
        BLOCK
    } else {
        2 * BLOCK
    };
    let bits = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bits.to_be_bytes());

    let mut state = H0;
    compress(&mut state, blocks);
    compress(&mut state, &tail[..tail_len]);

    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The compression function of §6.1.2 with the 16-word rolling schedule of
/// §6.1.3.
fn compress_portable(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK, 0);
    for block in blocks.chunks_exact(BLOCK) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let mut v = *state;
        // Ch and Maj in their three-operation forms.
        twenty_rounds(&mut v, &mut w, 0, 0x5A82_7999, |b, c, d| d ^ (b & (c ^ d)));
        twenty_rounds(&mut v, &mut w, 20, 0x6ED9_EBA1, |b, c, d| b ^ c ^ d);
        twenty_rounds(&mut v, &mut w, 40, 0x8F1B_BCDC, |b, c, d| {
            (b & c) | (d & (b | c))
        });
        twenty_rounds(&mut v, &mut w, 60, 0xCA62_C1D6, |b, c, d| b ^ c ^ d);
        for (h, v) in state.iter_mut().zip(v) {
            *h = h.wrapping_add(v);
        }
    }
}

/// Rounds `first..first + 20`, which share one constant and one function of
/// `b, c, d`; inlined so that both are compile-time in each of the four uses.
#[inline(always)]
fn twenty_rounds(
    v: &mut [u32; 5],
    w: &mut [u32; 16],
    first: usize,
    k: u32,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    for t in first..first + 20 {
        if t >= 16 {
            w[t % 16] =
                (w[(t + 13) % 16] ^ w[(t + 8) % 16] ^ w[(t + 2) % 16] ^ w[t % 16]).rotate_left(1);
        }
        let [a, b, c, d, e] = *v;
        let a_next = a
            .rotate_left(5)
            .wrapping_add(f(b, c, d))
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(w[t % 16]);
        *v = [a_next, a, b.rotate_left(30), c, d];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_types::{rng, Fingerprint};

    fn hex(digest: [u8; DIGEST_LEN]) -> String {
        Fingerprint::from_bytes(digest).to_hex()
    }

    /// Every compression function this machine can run. The portable one is
    /// always first, so a machine without `sha` still tests something.
    fn kernels() -> Vec<(&'static str, Compress)> {
        let mut kernels: Vec<(&'static str, Compress)> = vec![("portable", compress_portable)];
        kernels.extend(hardware().map(|ni| ("sha-ni", ni)));
        kernels
    }

    #[test]
    fn fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                // The 448-bit message: 56 bytes, the shortest whose padding
                // spills into a second block.
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "a49b2446a02c645bf419f995b67091253a04a259",
            ),
            (&million_a, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
        ];
        for (name, kernel) in kernels() {
            for (message, expected) in vectors {
                let len = message.len();
                assert_eq!(
                    hex(digest_with(kernel, message)),
                    expected,
                    "{name}, {len} bytes"
                );
            }
        }
        // And through the dispatch the product calls.
        assert_eq!(
            hex(digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn every_length_at_every_alignment() {
        // Lengths on both sides of each padding decision: 55 is the longest
        // one-block message, 56 the shortest two-block one, 63 / 64 the last
        // partial and first whole block, 119 / 120 the same edges one block
        // on. Digests of the bytes `i % 251`, from an independent SHA-1.
        const EDGES: [(usize, &str); 6] = [
            (55, "8ae2d46729cfe68ff927af5eec9c7d1b66d65ac2"),
            (56, "636e2ec698dac903498e648bd2f3af641d3c88cb"),
            (63, "6d942da0c4392b123528f2905c713a3ce28364bd"),
            (64, "c6138d514ffa2135bfce0ed0b8fac65669917ec7"),
            (119, "41c89d06001bab4ab78736b44efe7ce18ce6ae08"),
            (120, "d3dbd653bd8597b7475321b60a36891278e6a04a"),
        ];
        let ramp: Vec<u8> = (0..120usize).map(|i| (i % 251) as u8).collect();
        for (len, expected) in EDGES {
            assert_eq!(
                hex(digest_with(compress_portable, &ramp[..len])),
                expected,
                "len {len}"
            );
        }
        // 0..=257 covers those edges and four whole blocks besides. The
        // SHA-NI kernel's loads are unaligned by construction, so the start
        // walks through every offset within a 16-byte lane.
        let Some(ni) = hardware() else { return };
        let buf = rng::bytes(0x51a1, 257 + 15);
        for len in 0..=257usize {
            for offset in 0..=15usize {
                let message = &buf[offset..offset + len];
                assert_eq!(
                    digest_with(ni, message),
                    digest_with(compress_portable, message),
                    "len {len}, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_on_large_buffers() {
        rng::cases(6, 0x5a1d, |r| {
            let len = r.gen_range(1usize << 20..3 << 20);
            let mut buf = vec![0u8; len];
            r.fill_bytes(&mut buf);
            let message = &buf[r.gen_range(0usize..64)..];
            let expected = digest_with(compress_portable, message);
            for (name, kernel) in kernels() {
                assert_eq!(
                    digest_with(kernel, message),
                    expected,
                    "{name}, {len} bytes"
                );
            }
            assert_eq!(digest(message), expected);
        });
    }
}
