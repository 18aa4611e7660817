//! Baseline systems the SLIMSTORE paper compares against (§VII).
//!
//! Every baseline is implemented from its own paper's description, over the
//! same storage substrate and on-OSS formats as SLIMSTORE, so comparisons
//! measure the *algorithms*, not incidental format differences:
//!
//! * [`silo::SiloSystem`] — SiLO (Xia et al., ATC'11): similarity-hash table
//!   over segment representatives + block-grained locality cache;
//! * [`sparse_indexing::SparseIndexingSystem`] — Sparse Indexing
//!   (Lillibridge et al., FAST'09): sampled in-memory index, champion
//!   manifests;
//! * [`har::HarSystem`] — HAR (Fu et al., ATC'14): exact inline dedup with
//!   historical-aware rewriting of sparse-container chunks at the *next*
//!   backup;
//! * [`restore_caches`] — the restore-path baselines of Fig 8: LRU container
//!   cache, the OPT (Belady with look-ahead window) container cache, and
//!   ALACC's FAA + chunk-cache combination;
//! * [`restic::ResticSim`] — the dedup model of restic (the open-source
//!   comparison of Fig 10): ~1 MB content-defined chunks, one repository-wide
//!   lock around the shared fingerprint index, and an OSSFS-style
//!   filesystem-emulation layer that adds per-operation overhead.

#![forbid(unsafe_code)]

pub mod capping;
pub mod common;
pub mod har;
pub mod lbw;
pub mod restic;
pub mod restore_caches;
pub mod silo;
pub mod sparse_indexing;
pub mod stats;

pub use capping::CappingSystem;
pub use har::HarSystem;
pub use lbw::LbwSystem;
pub use restic::ResticSim;
pub use restore_caches::{AlaccRestore, LruContainerRestore, OptContainerRestore, RestoreCacheSim};
pub use silo::SiloSystem;
pub use sparse_indexing::SparseIndexingSystem;
pub use stats::BaselineBackupStats;
