//! Umbrella crate for the SLIMSTORE reproduction workspace.
//!
//! This crate exists so that repository-level `tests/` and `examples/` can
//! exercise the public API of every member crate. Library users should depend
//! on [`slimstore`] (the system facade) or on the individual substrate crates.

#![forbid(unsafe_code)]

pub use slim_baselines as baselines;
pub use slim_chunking as chunking;
pub use slim_frontend as frontend;
pub use slim_gnode as gnode;
pub use slim_index as index;
pub use slim_lnode as lnode;
pub use slim_oss as oss;
pub use slim_telemetry as telemetry;
pub use slim_types as types;
pub use slim_workload as workload;
pub use slimstore as system;
