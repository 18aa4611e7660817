//! Bloom filters.
//!
//! Two variants are used across SLIMSTORE:
//!
//! * [`BloomFilter`] — the classic bit-array filter. The G-node uses one to
//!   pre-filter unique chunks before querying the global index (§VI-A), and
//!   Rocks-OSS attaches one to every SSTable.
//! * [`CountingBloomFilter`] — 4-bit counters instead of bits. The restore
//!   cache builds one per file from the recipe to know, for every chunk, how
//!   many future references remain (§V-A "full vision replacement policy").
//!
//! Keys are 64-bit hashes (use [`crate::Fingerprint::prefix64`] for chunk
//! fingerprints — SHA-1 prefixes are uniform). Double hashing derives the k
//! probe positions from two mixes of the key.

use crate::rng::mix64;

/// Hash arbitrary bytes to a u64 (FNV-1a then mixed); used for string keys.
#[inline]
pub fn hash_bytes(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    mix64(h)
}

#[inline]
fn probes(key: u64, k: u32, slots: usize) -> impl Iterator<Item = usize> {
    let h1 = mix64(key);
    // Ensure the stride is odd so it is coprime with power-of-two slot
    // counts and never zero.
    let h2 = mix64(key ^ 0xA5A5_A5A5_A5A5_A5A5) | 1;
    (0..k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % slots as u64) as usize)
}

/// Standard bloom filter over 64-bit keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: usize,
    k: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Build a filter sized for `expected_items` at roughly
    /// `false_positive_rate` (clamped to sane bounds).
    pub fn with_rate(expected_items: usize, false_positive_rate: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let p = false_positive_rate.clamp(1e-9, 0.5);
        let n_bits = ((-n * p.ln()) / (2f64.ln().powi(2))).ceil() as usize;
        let n_bits = n_bits.max(64);
        let k = ((n_bits as f64 / n) * 2f64.ln()).round().clamp(1.0, 16.0) as u32;
        BloomFilter {
            bits: vec![0u64; n_bits.div_ceil(64)],
            n_bits,
            k,
            inserted: 0,
        }
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        for pos in probes(key, self.k, self.n_bits) {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
        self.inserted += 1;
    }

    /// Whether the key may have been inserted (false positives possible,
    /// false negatives impossible).
    pub fn may_contain(&self, key: u64) -> bool {
        probes(key, self.k, self.n_bits).all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    /// Number of insert calls.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Serialize to bytes (used by SSTable footers).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.bits.len() * 8);
        out.extend_from_slice(&(self.n_bits as u64).to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.inserted).to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize from [`BloomFilter::encode`] output.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 20 {
            return None;
        }
        let n_bits = u64::from_le_bytes(buf[0..8].try_into().ok()?) as usize;
        let k = u32::from_le_bytes(buf[8..12].try_into().ok()?);
        let inserted = u64::from_le_bytes(buf[12..20].try_into().ok()?);
        let words = n_bits.div_ceil(64);
        if buf.len() != 20 + words * 8 {
            return None;
        }
        let mut bits = Vec::with_capacity(words);
        for i in 0..words {
            bits.push(u64::from_le_bytes(
                buf[20 + i * 8..28 + i * 8].try_into().ok()?,
            ));
        }
        Some(BloomFilter {
            bits,
            n_bits,
            k,
            inserted,
        })
    }
}

/// Counting bloom filter with 4-bit saturating counters.
///
/// Supports `insert` / `remove` / `count > 0` queries. Counters saturate at
/// 15 and saturated counters are never decremented (standard CBF behaviour:
/// correctness degrades to "may contain" but never to a false negative for
/// keys whose true count is nonzero, provided no counter both saturates and
/// is fully removed).
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    nibbles: Vec<u8>, // two 4-bit counters per byte
    n_slots: usize,
    k: u32,
}

impl CountingBloomFilter {
    /// Build sized for `expected_items` distinct keys.
    pub fn new(expected_items: usize) -> Self {
        // ~10 slots per item gives <1% FP at k=4 and room for counts.
        let n_slots = (expected_items.max(1) * 10).next_power_of_two();
        CountingBloomFilter {
            nibbles: vec![0u8; n_slots.div_ceil(2)],
            n_slots,
            k: 4,
        }
    }

    #[inline]
    fn get_slot(&self, i: usize) -> u8 {
        let b = self.nibbles[i / 2];
        if i % 2 == 0 {
            b & 0x0f
        } else {
            b >> 4
        }
    }

    #[inline]
    fn set_slot(&mut self, i: usize, v: u8) {
        debug_assert!(v <= 0x0f);
        let b = &mut self.nibbles[i / 2];
        if i % 2 == 0 {
            *b = (*b & 0xf0) | v;
        } else {
            *b = (*b & 0x0f) | (v << 4);
        }
    }

    /// Increment the counters for `key`.
    pub fn insert(&mut self, key: u64) {
        for pos in probes(key, self.k, self.n_slots) {
            let c = self.get_slot(pos);
            if c < 0x0f {
                self.set_slot(pos, c + 1);
            }
        }
    }

    /// Decrement the counters for `key` (on restore of one reference).
    pub fn remove(&mut self, key: u64) {
        for pos in probes(key, self.k, self.n_slots) {
            let c = self.get_slot(pos);
            if c > 0 && c < 0x0f {
                self.set_slot(pos, c - 1);
            }
        }
    }

    /// Whether `key` still has at least one outstanding reference
    /// (no false negatives; rare false positives).
    pub fn may_contain(&self, key: u64) -> bool {
        probes(key, self.k, self.n_slots).all(|pos| self.get_slot(pos) > 0)
    }

    /// A lower bound estimate of the outstanding count for `key`
    /// (minimum over its counters).
    pub fn estimate(&self, key: u64) -> u8 {
        probes(key, self.k, self.n_slots)
            .map(|pos| self.get_slot(pos))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_no_false_negatives() {
        let mut bf = BloomFilter::with_rate(1000, 0.01);
        for i in 0..1000u64 {
            bf.insert(mix64(i));
        }
        for i in 0..1000u64 {
            assert!(bf.may_contain(mix64(i)));
        }
    }

    #[test]
    fn bloom_false_positive_rate_reasonable() {
        let mut bf = BloomFilter::with_rate(10_000, 0.01);
        for i in 0..10_000u64 {
            bf.insert(mix64(i));
        }
        let fps = (10_000..110_000u64)
            .filter(|&i| bf.may_contain(mix64(i)))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.05, "false positive rate too high: {rate}");
    }

    #[test]
    fn bloom_encode_decode() {
        let mut bf = BloomFilter::with_rate(100, 0.01);
        for i in 0..100u64 {
            bf.insert(i);
        }
        let buf = bf.encode();
        let back = BloomFilter::decode(&buf).unwrap();
        assert_eq!(back.inserted(), 100);
        for i in 0..100u64 {
            assert!(back.may_contain(i));
        }
        assert!(BloomFilter::decode(&buf[..buf.len() - 1]).is_none());
        assert!(BloomFilter::decode(&[0u8; 3]).is_none());
    }

    #[test]
    fn cbf_counts_up_and_down() {
        let mut cbf = CountingBloomFilter::new(100);
        cbf.insert(42);
        cbf.insert(42);
        assert!(cbf.may_contain(42));
        assert!(cbf.estimate(42) >= 2);
        cbf.remove(42);
        assert!(cbf.may_contain(42));
        cbf.remove(42);
        assert!(!cbf.may_contain(42));
    }

    #[test]
    fn cbf_no_false_negative_under_load() {
        let mut cbf = CountingBloomFilter::new(2000);
        for i in 0..2000u64 {
            cbf.insert(mix64(i));
        }
        for i in 0..2000u64 {
            assert!(cbf.may_contain(mix64(i)), "false negative at {i}");
        }
        // Remove half; the removed half may still false-positive but the
        // remaining half must all be present.
        for i in 0..1000u64 {
            cbf.remove(mix64(i));
        }
        for i in 1000..2000u64 {
            assert!(cbf.may_contain(mix64(i)));
        }
    }

    #[test]
    fn cbf_saturation_is_sticky() {
        let mut cbf = CountingBloomFilter::new(4);
        for _ in 0..100 {
            cbf.insert(7);
        }
        for _ in 0..100 {
            cbf.remove(7);
        }
        // Saturated counters never decrement: still "contains".
        assert!(cbf.may_contain(7));
    }

    #[test]
    fn hash_bytes_distinguishes() {
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
    }
}
