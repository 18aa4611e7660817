//! The SLIMSTORE benchmark.
//!
//! One command prices the system end to end (what an operator backing up
//! multi-version data to a cloud object store pays for) and, in a traced
//! run, layer by layer. See `README.md` for the metric definitions and
//! `BENCHMARK.json` at the repository root for the contract.

pub mod check;
pub mod cli;
pub mod gen;
pub mod harness;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod selftest;
pub mod trace;
pub mod traced_store;
pub mod workloads;
