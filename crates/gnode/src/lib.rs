//! The SLIMSTORE G-node: offline space management (§V-B, §VI).
//!
//! The G-node runs in the backend, independent of the online dedup/restore
//! path, and owns three responsibilities:
//!
//! * **global reverse deduplication** ([`reverse_dedup`]) — the exact dedup
//!   pass: every chunk of the containers a backup created is checked against
//!   the global fingerprint index; duplicates are removed from the *older*
//!   container, preserving new-version locality and shrinking old-version
//!   storage (§VI-A);
//! * **sparse container compaction** ([`scc`]) — containers of which the
//!   newest version uses only a small fraction are compacted: the useful
//!   chunks move into fresh containers and the current version's recipes are
//!   rewritten, so the benefit applies to the *current* version (§V-B,
//!   unlike HAR's next-version rewriting);
//! * **version collection** ([`collect`]) — the Mark phase runs at dedup
//!   time (garbage containers are associated with the version whose deletion
//!   frees them), so deleting a version is a pure Sweep (§VI-B);
//! * **orphan scrubbing** ([`collect::scrub_orphans`]) — backup jobs commit
//!   by PUTting the version manifest last, so a job killed mid-backup leaves
//!   unreachable container/recipe keys; the scrub reclaims them;
//! * **redundancy & repair** ([`redundancy`]) — a dedup-aware protection
//!   policy (full replicas for the containers many retained versions lean
//!   on — version fan-in, [`fanin`] — XOR parity groups for the rest,
//!   metadata always replicated) re-tiered each cycle,
//!   plus the [`GNode::repair`] sweep that reconstructs quarantined
//!   containers from the plane and re-points the global index.
//!
//! Because every one of these passes rewrites or deletes shared objects in
//! multiple non-atomic OSS steps, each destructive step is preceded by an
//! idempotent record in the [`journal`]; [`GNode::recover`] replays
//! outstanding intents after a crash and quarantines corrupted maintenance
//! outputs, so a cycle killed at any point converges to its post-cycle state.
//!
//! [`GNode`] packages these into the offline cycle the system facade
//! schedules after each backup version.

#![forbid(unsafe_code)]

pub mod collect;
pub mod fanin;
mod fanout;
pub mod journal;
pub mod meta_cache;
pub mod node;
pub mod redundancy;
pub mod reverse_dedup;
pub mod scc;

pub use collect::{scrub_orphans, CollectStats, OrphanScrubStats};
pub use journal::{Intent, Journal};
pub use node::{GNode, GNodeCycleStats, IntegrityReport, RecoveryReport};
pub use redundancy::{PurgeReport, RedundancyStats, RepairReport};
