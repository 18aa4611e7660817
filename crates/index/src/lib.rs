//! Deduplication indexes of SLIMSTORE.
//!
//! Three index structures from §III-B of the paper:
//!
//! * [`similar::SimilarFileIndex`] — representative fingerprints of every
//!   file, used by an L-node's Step 1 to detect a historical version or
//!   similar file (Broder's theorem);
//! * [`global::GlobalIndex`] — the exact fingerprint → container mapping of
//!   *all* chunks of a user, stored in Rocks-OSS and consulted only by the
//!   G-node (reverse deduplication) and by old-version restores after
//!   relocation;
//! * [`dedup_cache::DedupCache`] — the L-node's in-memory cache of prefetched
//!   segment recipes, which is where logical locality turns one recipe-index
//!   hit into a whole run of duplicate detections (§IV-A Step 2), and where
//!   skip chunking finds "the size of the next chunk" (§IV-B) and
//!   superchunk candidates (§IV-C).
//!
//! Bloom and counting-bloom filters live in [`slim_types::bloom`] because the
//! storage substrate also needs them.

#![forbid(unsafe_code)]

pub mod dedup_cache;
pub mod global;
pub mod similar;

pub use dedup_cache::{CacheHit, DedupCache};
pub use global::GlobalIndex;
pub use similar::SimilarFileIndex;
