//! Synthetic multi-version backup workloads.
//!
//! Reproduces the *statistics* of the two datasets in Table I of the
//! SLIMSTORE paper at a configurable scale:
//!
//! | dataset | size | versions | files | avg dup ratio | self-reference |
//! |---------|------|----------|-------|---------------|----------------|
//! | S-DB    | 2.44 TB | 25 | 500 | 0.84 (0.65–0.95 per file) | 20 % |
//! | R-Data  | 1.53 TB | 13 | 7440 | 0.92 | 0.1 % |
//!
//! S-DB simulates database table files evolved by insert/update/delete
//! operations; R-Data models a real enterprise backup (many files, high
//! duplication, almost no self-reference). Since the real traces are
//! proprietary / too large, this generator produces seeded, fully
//! deterministic content whose *between-version duplication ratio*,
//! *mutation locality* (in-place updates plus shifting inserts/deletes,
//! which exercise CDC boundary-shift resistance) and *self-reference rate*
//! match the reported numbers. Size is a scale parameter.
//!
//! Determinism contract: the bytes of `(file, version)` depend only on the
//! workload config (including its seed) — any two calls, in any process,
//! produce identical bytes. Experiments are therefore reproducible and files
//! can be regenerated lazily instead of held in memory.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod generator;
pub mod stats;

pub use arrivals::PoissonArrivals;
pub use generator::{FileVersion, Workload, WorkloadConfig};
pub use stats::DatasetStats;
