//! The SLIMSTORE L-node: fast online deduplication and restore (§IV, §V-A).
//!
//! L-nodes are the stateless workers of the computing layer. A backup job
//! runs the three-step workflow of §IV-A — detect a historical/similar file,
//! prefetch similar segment recipes and dedup against them, segment and
//! persist — accelerated by the two history-aware techniques:
//!
//! * **skip chunking** (§IV-B): after a confirmed duplicate, jump straight to
//!   the predicted next cut point and verify by fingerprint, skipping the
//!   byte-by-byte CDC scan;
//! * **chunk merging / SuperChunking** (§IV-C, Algorithm 1): runs of
//!   long-duplicated chunks merge into superchunks, and superchunks of the
//!   previous version are matched via their first member chunk.
//!
//! A restore job replays a recipe with the §V-A machinery: the **full-vision
//! cache** (counting bloom filter over the whole recipe + S_I/S_L/S_U chunk
//! states + memory/disk tiers) and **LAW-based multi-threaded prefetching**.
//!
//! [`storage::StorageLayer`] — the shared view of the OSS storage layer
//! (container store, recipe store, manifests) — also lives here because both
//! node types are built on it.

#![forbid(unsafe_code)]

pub mod backup;
pub mod fv_cache;
pub mod node;
pub(crate) mod pipeline;
pub mod prefetch;
pub mod restore;
pub mod stats;
pub mod storage;

pub use backup::{BackupOutcome, BackupPipeline};
pub use fv_cache::FullVisionCache;
pub use node::LNode;
pub use restore::{RestoreEngine, RestoreOptions};
pub use stats::{BackupStats, RestoreStats};
pub use storage::StorageLayer;
