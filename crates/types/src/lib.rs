//! Core data structures and binary formats shared by every SLIMSTORE crate.
//!
//! This crate defines the vocabulary of the system described in
//! *"SLIMSTORE: A Cloud-based Deduplication System for Multi-version Backups"*
//! (ICDE 2021):
//!
//! * [`Fingerprint`] — SHA-1 chunk fingerprints and sampling predicates;
//! * [`ChunkRecord`] — the recipe quadruple
//!   ⟨fp, containerID, size, duplicateTimes⟩ plus superchunk metadata;
//! * [`Recipe`] / [`SegmentRecipe`] — the logical chunk sequence of one backup
//!   file version, grouped into segments (§III-B of the paper);
//! * [`RecipeIndex`] — sampled fingerprints → segment-recipe offsets;
//! * [`ContainerMeta`] — physical layout of a container: per-chunk offsets,
//!   deletion marks, and stale-chunk accounting;
//! * [`VersionManifest`] — per-version bookkeeping: files, new containers and
//!   garbage containers discovered during deduplication (§VI-B);
//! * [`SlimConfig`] — every tunable the paper mentions, with the paper's
//!   defaults.
//!
//! Everything that crosses the OSS boundary has a versioned binary encoding
//! (see [`codec`]) so that the storage layer stores bytes, not Rust objects.

#![forbid(unsafe_code)]

pub mod bloom;
pub mod chunk;
pub mod codec;
pub mod compress;
pub mod config;
pub mod container;
pub mod crc;
pub mod deadline;
pub mod error;
pub mod fingerprint;
pub mod layout;
pub mod recipe;
pub mod redundancy;
pub mod rng;
pub mod version;

pub use bloom::{BloomFilter, CountingBloomFilter};
pub use chunk::{ChunkRecord, SuperChunkInfo};
pub use config::SlimConfig;
pub use container::{
    CompressionStats, ContainerBuilder, ContainerEntry, ContainerId, ContainerMeta,
};
pub use deadline::{Deadline, DeadlineGuard};
pub use error::{Result, SlimError};
pub use fingerprint::Fingerprint;
pub use recipe::{Recipe, RecipeIndex, RecipeIndexEntry, SegmentRecipe};
pub use redundancy::{GroupMember, ParityGroup};
pub use version::{FileBackupInfo, FileId, VersionId, VersionManifest};
