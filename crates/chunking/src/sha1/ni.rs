//! The SHA-1 compression function on the x86-64 SHA extensions — the only
//! module in the tree that is allowed `unsafe`.
//!
//! Four rounds per `sha1rnds4`, the message schedule four words at a time
//! through `sha1msg1` / `sha1msg2`, `e` carried by `sha1nexte`: the sequence
//! of Intel's *SHA Extensions* white paper, written as a loop over the
//! twenty four-round groups.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
    _mm_shuffle_epi8, _mm_xor_si128,
};

use super::{Compress, BLOCK};

/// The SHA-NI compression function, if this CPU can run it.
pub(super) fn detect() -> Option<Compress> {
    let supported = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    supported.then_some(compress as Compress)
}

/// Private: reachable only as the pointer [`detect`] hands out after it has
/// seen the features [`compress_blocks`] is compiled for.
fn compress(state: &mut [u32; 5], blocks: &[u8]) {
    // SAFETY: the only way to this function is through `detect`, which
    // returns it only when the CPU reports `sha`, `ssse3` and `sse4.1` — the
    // exact feature set `compress_blocks` enables.
    unsafe { compress_blocks(state, blocks) }
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK, 0);
    // Reverses the bytes of the whole register: a block's words become
    // big-endian values, with the first word in the top lane, which is where
    // `sha1rnds4` expects it.
    let byte_reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let [a, b, c, d, e] = state.map(|w| w as i32);
    let mut abcd = _mm_set_epi32(a, b, c, d);
    let mut e = _mm_set_epi32(e, 0, 0, 0);

    for block in blocks.chunks_exact(BLOCK) {
        let (abcd_in, e_in) = (abcd, e);
        let mut w: [__m128i; 4] = std::array::from_fn(|lane| {
            let bytes = &block[16 * lane..16 * lane + 16];
            // SAFETY: `bytes` is a 16-byte slice (the indexing above panics
            // otherwise — `chunks_exact` only yields whole 64-byte blocks), so
            // the 16 bytes read at its start are in bounds; `_mm_loadu_si128`
            // has no alignment requirement.
            let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) };
            _mm_shuffle_epi8(raw, byte_reverse)
        });

        // One four-round group: `$i` is its index (0..20), `$f` the round
        // function of its twenty-round quarter.
        macro_rules! group {
            ($i:expr, $f:literal) => {{
                let i: usize = $i;
                if i >= 4 {
                    // W[t..t+4] from the four lanes before it (FIPS 180-4
                    // §6.1.3, four words at a time).
                    let mixed =
                        _mm_xor_si128(_mm_sha1msg1_epu32(w[i % 4], w[(i + 1) % 4]), w[(i + 2) % 4]);
                    w[i % 4] = _mm_sha1msg2_epu32(mixed, w[(i + 3) % 4]);
                }
                // `e` for this group is `a` of four rounds ago rotated by 30
                // (what `sha1nexte` computes from the old `abcd`), except in
                // the first group, where it is the incoming `e` itself.
                let e_w = if i == 0 {
                    _mm_add_epi32(e, w[0])
                } else {
                    _mm_sha1nexte_epu32(e, w[i % 4])
                };
                e = abcd;
                abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e_w);
            }};
        }
        for i in 0..5 {
            group!(i, 0);
        }
        for i in 5..10 {
            group!(i, 1);
        }
        for i in 10..15 {
            group!(i, 2);
        }
        for i in 15..20 {
            group!(i, 3);
        }

        e = _mm_sha1nexte_epu32(e, e_in);
        abcd = _mm_add_epi32(abcd, abcd_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abcd) as u32,
        _mm_extract_epi32::<2>(abcd) as u32,
        _mm_extract_epi32::<1>(abcd) as u32,
        _mm_extract_epi32::<0>(abcd) as u32,
        _mm_extract_epi32::<3>(e) as u32,
    ];
}
