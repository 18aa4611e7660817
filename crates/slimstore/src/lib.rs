//! # SLIMSTORE — a cloud-based deduplication system for multi-version backups
//!
//! The system facade tying the paper's architecture together (§III):
//!
//! * a **storage layer** on (simulated) OSS — container store, recipe store,
//!   similar-file index, global fingerprint index on Rocks-OSS;
//! * a **computing layer** of stateless [`slim_lnode::LNode`]s for fast
//!   online deduplication and restore, scheduled in parallel across backup
//!   jobs, plus one [`slim_gnode::GNode`] for offline space management
//!   (reverse deduplication, sparse container compaction, version
//!   collection).
//!
//! ```
//! use slimstore::{SlimStore, SlimStoreBuilder};
//! use slim_types::FileId;
//!
//! let store = SlimStoreBuilder::in_memory().build().unwrap();
//! let file = FileId::new("db/users.ibd");
//! let v0 = store.backup_version(vec![(file.clone(), b"hello world backup".to_vec())]).unwrap();
//! store.run_gnode_cycle(v0.version).unwrap();
//! let (bytes, _stats) = store.restore_file(&file, v0.version).unwrap();
//! assert_eq!(bytes, b"hello world backup");
//! ```

#![forbid(unsafe_code)]

pub mod compute;
pub mod space;
pub mod store;
pub mod tenants;

pub use compute::{ComputeLayer, JobScheduler};
pub use space::SpaceReport;
pub use store::{RetentionReport, SlimStore, SlimStoreBuilder, VersionBackupReport};
pub use tenants::TenantStoreManager;
