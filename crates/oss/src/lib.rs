//! Simulated Object Storage Service (OSS) and Rocks-OSS.
//!
//! SLIMSTORE's storage layer lives on cloud object storage (Alibaba OSS /
//! Amazon S3 in the paper). This crate provides a faithful in-process stand-in
//! with the properties the paper's evaluation depends on:
//!
//! * **high per-request latency** — every operation pays a configurable
//!   round-trip latency;
//! * **low single-channel, scalable multi-channel bandwidth** — transfer time
//!   is `bytes / channel_bandwidth`, and up to `channels` transfers proceed in
//!   parallel (Table II's prefetch-thread scaling comes from exactly this);
//! * **pay-per-byte accounting** — [`OssMetrics`] counts every request and
//!   byte, which is what the read-amplification figures (containers read per
//!   100 MB) are computed from;
//! * **fault injection** — tests can make specific keys or the Nth operation
//!   fail, throttle every Nth request, inject latency, or draw transient
//!   failures from a seeded probabilistic schedule ([`fault`]);
//! * **retries** — [`RetryingStore`] wraps any [`ObjectStore`] with
//!   exponential backoff, deterministic jitter, and attempt/deadline budgets
//!   ([`retry`]);
//! * **self-healing redundancy** — [`RedundantStore`] reconstructs corrupt
//!   or missing container objects from replicas or XOR parity groups and
//!   read-repairs the primary in place ([`redundant`]).
//!
//! * **gray-failure resilience** — [`HedgedStore`] scores the health of each
//!   simulated endpoint ([`health`]), hedges idempotent reads against the
//!   healthiest backup endpoint after a live latency quantile, breaks the
//!   circuit to persistently sick endpoints, and honors the ambient request
//!   [`slim_types::Deadline`] before issuing any call ([`hedge`]).
//!
//! [`rocks`] implements *Rocks-OSS* (§III-B): an LSM key-value store whose
//! SSTables are OSS objects, used by the global fingerprint index.

#![forbid(unsafe_code)]

pub mod disk;
pub mod endpoint;
pub mod fault;
pub mod health;
pub mod hedge;
pub mod metrics;
pub mod namespace;
pub mod network;
pub mod redundant;
pub mod retry;
pub mod rocks;
pub mod store;

pub use disk::LocalDiskOss;
pub use fault::{Corruption, CorruptionKind, FaultDecision, FaultErrorKind, FaultPlan};
pub use health::HealthTracker;
pub use hedge::{BreakerPolicy, BreakerStage, CircuitBreaker, HedgePolicy, HedgedStore};
pub use metrics::{MetricsSnapshot, OssMetrics};
pub use namespace::NamespacedStore;
pub use network::NetworkModel;
pub use redundant::{
    object_state, reconstruct_object, ObjectState, RedundancyMetrics, RedundantStore, RepairSource,
};
pub use retry::{next_jitter_salt, RetryMetrics, RetryPolicy, RetryingStore};
pub use store::{ObjectStore, Oss};
