//! Content-defined chunking and fingerprinting.
//!
//! Implements the chunking stage of the dedup workflow (§II, §IV-B of the
//! SLIMSTORE paper):
//!
//! * [`rabin::RabinChunker`] — the classic Rabin-fingerprint CDC of LBFS,
//!   deliberately faithful to its byte-by-byte polynomial arithmetic (it is
//!   the slow baseline of Fig 2/Fig 5);
//! * [`gear::GearChunker`] — Gear hash CDC (one shift + add + table lookup
//!   per byte);
//! * [`fastcdc::FastCdcChunker`] — FastCDC with normalized chunking (two
//!   masks around the target size) and min-size skipping;
//! * [`fixed::FixedChunker`] — fixed-size chunking (boundary-shift baseline);
//! * [`fp`] — SHA-1 chunk fingerprinting, over an in-tree SHA-1 with an
//!   x86-64 SHA-NI path;
//! * [`sample`] — the `fp mod R == 0` representative-fingerprint sampling
//!   used by the similar-file index and recipe index.
//!
//! All chunkers implement [`Chunker`], which exposes both a scanning
//! `next_boundary` and a point probe `is_boundary`. The point probe is what
//! makes history-aware skip chunking possible: after skipping to a predicted
//! cut point the L-node re-checks the cut condition in O(window) instead of
//! rescanning every byte (§IV-B).

#![deny(unsafe_code)]

pub mod fastcdc;
pub mod fixed;
pub mod fp;
pub mod gear;
pub mod rabin;
pub mod sample;
mod sha1;
pub mod stream;

pub use fastcdc::FastCdcChunker;
pub use fixed::FixedChunker;
pub use fp::fingerprint;
pub use gear::GearChunker;
pub use rabin::RabinChunker;
pub use stream::{boundaries, chunk_all, Boundaries, ChunkRef};

use slim_types::SlimConfig;

/// Size bounds shared by every chunker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// No cut point before this many bytes.
    pub min: usize,
    /// Target average chunk size (must be a power of two).
    pub avg: usize,
    /// Forced cut at this many bytes.
    pub max: usize,
}

impl ChunkSpec {
    /// Construct, clamping degenerate values.
    pub fn new(min: usize, avg: usize, max: usize) -> Self {
        let avg = avg.next_power_of_two().max(2);
        let min = min.clamp(1, avg);
        let max = max.max(avg);
        ChunkSpec { min, avg, max }
    }

    /// Spec from a [`SlimConfig`].
    pub fn from_config(cfg: &SlimConfig) -> Self {
        ChunkSpec::new(cfg.min_chunk_size, cfg.avg_chunk_size, cfg.max_chunk_size)
    }

    /// Mask with `log2(avg)` low bits set — the standard CDC cut mask giving
    /// an expected chunk size of `avg`.
    pub fn mask(&self) -> u64 {
        (self.avg as u64) - 1
    }
}

/// A content-defined (or fixed) chunking algorithm.
///
/// Chunkers are stateless and reentrant: every chunk scan starts with a fresh
/// hash state, so cut decisions depend only on the bytes since the chunk
/// start. That property is what makes skip-chunking verification sound.
pub trait Chunker: Send + Sync {
    /// The size bounds in force.
    fn spec(&self) -> ChunkSpec;

    /// Scan forward from `start` and return the end offset of the next chunk
    /// (exclusive). Always returns a value in
    /// `start+1 ..= min(start+max, data.len())`; returns `data.len()` when
    /// fewer than `min` bytes remain.
    fn next_boundary(&self, data: &[u8], start: usize) -> usize;

    /// Whether a chunk spanning `start..end` would be terminated at `end` by
    /// this chunker — either because the content hash meets the cut condition
    /// at `end`, because `end - start` equals the max chunk size, or because
    /// `end` is the end of the stream.
    ///
    /// This is the O(window) probe used by history-aware skip chunking.
    fn is_boundary(&self, data: &[u8], start: usize, end: usize) -> bool;

    /// Short algorithm name for reports ("rabin", "fastcdc", ...).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod test_util {
    /// Deterministic pseudo-random buffer.
    pub fn random_data(len: usize, seed: u64) -> Vec<u8> {
        slim_types::rng::bytes(seed, len)
    }

    /// Assert the boundary list produced by a chunker is internally
    /// consistent with its spec and covers the whole buffer.
    pub fn check_chunk_invariants(chunker: &dyn super::Chunker, data: &[u8]) {
        let spec = chunker.spec();
        let mut pos = 0;
        while pos < data.len() {
            let end = chunker.next_boundary(data, pos);
            assert!(end > pos, "no progress at {pos}");
            let len = end - pos;
            assert!(len <= spec.max, "chunk of {len} exceeds max {}", spec.max);
            if end != data.len() {
                assert!(
                    len >= spec.min,
                    "interior chunk of {len} below min {}",
                    spec.min
                );
            }
            assert!(
                chunker.is_boundary(data, pos, end),
                "next_boundary returned {end} but is_boundary denies it (start {pos})"
            );
            pos = end;
        }
        assert_eq!(pos, data.len());
    }
}
