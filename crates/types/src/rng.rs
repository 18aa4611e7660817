//! The one source of pseudo-randomness in the workspace: SplitMix64.
//!
//! Workload generators, test data, fault plans, retry jitter, the hedge coin
//! and the gear table all draw from here, so a seed means the same bytes on
//! every toolchain and in every crate version. The streams are pinned by
//! golden vectors (`tests` below); changing them changes every generated
//! dataset and every table in EXPERIMENTS.md.

use std::ops::Range;

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step as a pure function: the output for state `x`. Also a
/// cheap, well-distributed 64-bit mixer (bloom probes, seed derivation) and a
/// counter-based generator (`mix64(seed + n)` is the stream's n-th draw).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a u64 to a uniform f64 in `[0, 1)` using the top 53 bits.
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream whose state starts at `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// Fill `buf` from the stream, eight little-endian bytes per draw.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            tail.copy_from_slice(&self.next_u64().to_le_bytes()[..tail.len()]);
        }
    }

    /// Uniform draw from the non-empty half-open range of an unsigned (or
    /// non-negative) integer type.
    pub fn gen_range<T>(&mut self, range: Range<T>) -> T
    where
        T: TryInto<u64> + TryFrom<u64>,
    {
        let bound = |v: T| v.try_into().ok().expect("gen_range: negative bound");
        let (lo, hi): (u64, u64) = (bound(range.start), bound(range.end));
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        let offset = ((self.next_u64() as u128 * (hi - lo) as u128) >> 64) as u64;
        T::try_from(lo + offset).ok().expect("gen_range: in range")
    }

    /// A buffer whose length is drawn from `len`, filled from the stream.
    pub fn gen_bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let mut buf = vec![0u8; self.gen_range(len)];
        self.fill_bytes(&mut buf);
        buf
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// `len` bytes of the stream seeded with `seed`: the test-data helper.
pub fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    Rng::seed_from_u64(seed).fill_bytes(&mut buf);
    buf
}

/// Run `property` on `n` generated cases; case `i` draws from the stream
/// seeded `seed + i`. A failing case prints its seed on the way out, and
/// `cases(1, <that seed>, …)` replays exactly it. No shrinking.
pub fn cases(n: u64, seed: u64, mut property: impl FnMut(&mut Rng)) {
    struct Report(u64);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "rng::cases: failed at case seed {:#x}; replay with cases(1, {:#x}, ..)",
                    self.0, self.0
                );
            }
        }
    }
    for i in 0..n {
        let report = Report(seed.wrapping_add(i));
        property(&mut Rng::seed_from_u64(report.0));
        drop(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden vectors: these pin the stream forever. The seed-0 row is the
    // published SplitMix64 reference output.
    #[test]
    fn stream_is_pinned() {
        let first8 = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            [(); 8].map(|_| rng.next_u64())
        };
        assert_eq!(first8(0), GOLDEN_SEED_0);
        assert_eq!(first8(1), GOLDEN_SEED_1);
    }

    #[test]
    fn fill_bytes_is_pinned_and_prefix_stable() {
        let mut buf = [0u8; 13];
        Rng::seed_from_u64(0).fill_bytes(&mut buf);
        assert_eq!(buf, GOLDEN_FILL_13);
        assert_eq!(bytes(0, 13), buf);
        assert_eq!(bytes(0, 64)[..13], buf);
    }

    #[test]
    fn gen_range_covers_the_range_and_stays_inside() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[rng.gen_range(3usize..10) - 3] = true;
            assert!((250u8..255).contains(&rng.gen_range(250u8..255)));
            assert_eq!(rng.gen_range(u64::MAX - 1..u64::MAX), u64::MAX - 1);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_and_unit_f64_follow_the_probability() {
        let mut rng = Rng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0) && rng.gen_bool(1.0));
        for i in 0..10_000 {
            assert!((0.0..1.0).contains(&unit_f64(mix64(i))));
        }
        assert!(unit_f64(u64::MAX) < 1.0);
    }

    #[test]
    fn cases_seeds_each_case_and_replays() {
        let mut firsts = Vec::new();
        cases(4, 100, |rng| firsts.push(rng.next_u64()));
        assert_eq!(firsts.len(), 4);
        assert_eq!(firsts[0], mix64(100));
        let mut replay = 0;
        cases(1, 102, |rng| replay = rng.next_u64());
        assert_eq!(replay, firsts[2]);
    }

    const GOLDEN_SEED_0: [u64; 8] = [
        0xE220_A839_7B1D_CDAF,
        0x6E78_9E6A_A1B9_65F4,
        0x06C4_5D18_8009_454F,
        0xF88B_B8A8_724C_81EC,
        0x1B39_896A_51A8_749B,
        0x53CB_9F0C_747E_A2EA,
        0x2C82_9ABE_1F45_32E1,
        0xC584_133A_C916_AB3C,
    ];
    const GOLDEN_SEED_1: [u64; 8] = [
        0x910A_2DEC_8902_5CC1,
        0xBEEB_8DA1_658E_EC67,
        0xF893_A2EE_FB32_555E,
        0x71C1_8690_EE42_C90B,
        0x71BB_54D8_D101_B5B9,
        0xC34D_0BFF_9015_0280,
        0xE099_EC6C_D736_3CA5,
        0x85E7_BB0F_1227_8575,
    ];
    const GOLDEN_FILL_13: [u8; 13] = [
        0xAF, 0xCD, 0x1D, 0x7B, 0x39, 0xA8, 0x20, 0xE2, 0xF4, 0x65, 0xB9, 0xA1, 0x6A,
    ];
}
