//! # slim-frontend — the multi-tenant request plane
//!
//! SLIMSTORE's service model (paper §III-B) runs one logical deployment
//! per user over a shared OSS bucket. The crates below this one implement
//! that deployment — chunking L-nodes, the offline G-node, the container
//! store — but none of them decides *whose* request runs *when*, or what
//! happens when more work arrives than the deployment can absorb. That
//! admission-and-scheduling decision is this crate.
//!
//! A [`Frontend`] sits in front of a [`slimstore::TenantStoreManager`]
//! and owns the request lifecycle:
//!
//! 1. **Admission** — [`Frontend::submit`] checks, synchronously and per
//!    tenant: the drain state, a token-bucket rate limit, and a bounded
//!    per-class queue. Refusals return
//!    [`slim_types::SlimError::Overloaded`] — a retryable error, so
//!    callers back off instead of queueing unboundedly inside the system.
//! 2. **Scheduling** — admitted requests wait in per-tenant queues split
//!    by [`Priority`] class. Dispatcher workers drain them with strict
//!    priority across classes (restore > backup > G-node maintenance) and
//!    weighted deficit round-robin across tenants within a class, so one
//!    tenant's backup flood cannot starve another tenant's restores, and
//!    offline dedup never runs ahead of foreground traffic.
//! 3. **Execution** — the winning request runs against its tenant's
//!    [`slimstore::SlimStore`], byte-identically to a direct call; the
//!    caller's [`Ticket`] resolves with the same result type.
//! 4. **Shedding** — a request whose deadline expires while queued is
//!    completed with `Overloaded` instead of executing late; overload is
//!    surfaced at the edges, never hidden in the middle.
//!
//! Rate limits and deadlines run on a virtual [`Clock`] so tests drive
//! them deterministically; latency histograms always use wall time.
//! Everything the frontend does is observable through its
//! [`slim_telemetry::Registry`]: `frontend.{admitted,shed,timeout,
//! completed,failed}` counters (with per-reason `shed.*` splits),
//! queue-depth and in-flight gauges (global, per class, per tenant), and
//! per-class/per-tenant latency and queue-wait histograms.
//!
//! ```
//! use slim_frontend::{FrontendBuilder, FrontendConfig, Request};
//! use slim_oss::rocks::RocksConfig;
//! use slim_oss::NetworkModel;
//! use slim_types::{FileId, SlimConfig};
//! use slimstore::TenantStoreManager;
//! use std::sync::Arc;
//!
//! let manager = Arc::new(
//!     TenantStoreManager::in_memory(NetworkModel::instant())
//!         .with_config(SlimConfig::small_for_tests())
//!         .with_rocks_config(RocksConfig::small_for_tests()),
//! );
//! let frontend = FrontendBuilder::new(manager)
//!     .with_config(FrontendConfig::small_for_tests())
//!     .start()
//!     .unwrap();
//! let ticket = frontend
//!     .submit(
//!         "acme",
//!         Request::Backup {
//!             files: vec![(FileId::new("db/users"), b"rows".repeat(900))],
//!             jobs: 1,
//!         },
//!     )
//!     .unwrap();
//! let report = ticket.wait().unwrap().into_backup().unwrap();
//! assert_eq!(report.files, 1);
//! frontend.shutdown();
//! ```

#![forbid(unsafe_code)]

mod clock;
mod frontend;
mod policy;
mod request;
mod scheduler;

pub use clock::{Clock, ManualClock, SystemClock};
pub use frontend::{Frontend, FrontendBuilder, FrontendStats, TenantQueueStats};
pub use policy::{FrontendConfig, Priority, TenantPolicy, CLASSES};
pub use request::{Request, Response, Ticket};
