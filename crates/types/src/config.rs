//! System configuration.
//!
//! Every tunable the paper names, with the paper's default values. The
//! experiment harnesses sweep these; the library validates them once at
//! construction so the hot paths can assume sane values.

use crate::error::{Result, SlimError};

/// Configuration for a SLIMSTORE deployment.
#[derive(Debug, Clone)]
pub struct SlimConfig {
    /// Minimum CDC chunk size in bytes (cut points below this are ignored).
    pub min_chunk_size: usize,
    /// Target (average/expected) CDC chunk size in bytes. The paper's default
    /// online configuration is 4 KB (§IV-C, §VII-B).
    pub avg_chunk_size: usize,
    /// Maximum CDC chunk size in bytes (forced cut).
    pub max_chunk_size: usize,

    /// Number of consecutive chunks that form a segment (§III-B). Segments
    /// are the unit of recipe prefetching and of sampling.
    pub segment_chunks: usize,

    /// Sampling rate `R`: a fingerprint is representative iff
    /// `fp mod R == 0` (§IV-A Step 1).
    pub sample_rate: u64,

    /// Number of representative fingerprints kept per file in the similar
    /// file index (header sampling for large files, §IV-A).
    pub similar_index_samples: usize,

    /// Container capacity in bytes; when a container reaches this it is
    /// sealed and persisted to OSS (§IV-A Step 3).
    pub container_capacity: usize,

    /// `duplicateTimes` threshold at which consecutive duplicate chunks are
    /// merged into a superchunk (§IV-C; the paper's experiments use 5).
    pub merge_threshold: u32,
    /// Minimum run length (in chunks) worth merging into a superchunk:
    /// short runs cost a payload re-store without meaningfully shrinking the
    /// recipe, so only runs of at least this many chunks merge.
    pub superchunk_min_members: usize,
    /// Maximum number of member chunks merged into one superchunk.
    pub superchunk_max_members: usize,
    /// Whether history-aware chunk merging is enabled.
    pub chunk_merging: bool,
    /// Whether history-aware skip chunking is enabled (§IV-B).
    pub skip_chunking: bool,

    /// Container utilization below which a container is recorded as *sparse*
    /// for the current backup (§V-B; paper example 30 %).
    pub sparse_utilization_threshold: f64,
    /// Fraction of deleted chunks above which a container is physically
    /// rewritten by the G-node (§VI-A; paper example 20 %).
    pub container_rewrite_threshold: f64,

    /// Look-ahead window length, in chunk records, used by LAW prefetching
    /// and the restore caches (§V-A).
    pub law_window: usize,
    /// Capacity of the in-memory restore cache tier (`Cache_m`) in bytes.
    pub restore_cache_mem: usize,
    /// Capacity of the on-disk restore cache tier (`Cache_d`) in bytes.
    pub restore_cache_disk: usize,
    /// Number of background prefetch threads for LAW-based prefetching
    /// (Table II; 6 saturates in the paper).
    pub prefetch_threads: usize,

    /// Whether the dedup-aware redundancy plane is active: container objects
    /// are protected by replicas or XOR parity groups, reads self-heal from
    /// them, and the G-node re-tiers protection each maintenance cycle.
    pub redundancy: bool,
    /// Version fan-in — the number of retained versions whose recipes name
    /// a container — at or above which its data object is protected by a
    /// full replica instead of parity-only. Deduplication concentrates risk
    /// in exactly these containers: that many versions are lost with one
    /// object. Promotion is one-way (a replica outlives a falling fan-in
    /// until its container is collected); `0` replicates every container,
    /// `u64::MAX` none.
    pub redundancy_replica_versions: u64,
    /// Number of container data objects XOR-ed together into one parity
    /// group (the `k` of k+1 erasure coding; any single member is
    /// reconstructible from the other k-1 plus the parity block).
    pub parity_group_size: usize,

    /// Whether chunk payloads are LZ-compressed (per entry, independently)
    /// when containers are built, stored raw when not strictly smaller.
    /// Container boundaries — and therefore every dedup statistic — are
    /// invariant under this knob; only stored/transferred bytes shrink.
    /// G-node rewrites recompress (or decompress) as they rewrite, so
    /// flipping the knob converges existing repositories over time.
    pub compression: bool,

    /// Thread budget for the pipelined parallel backup plane, *per backup
    /// job*. `0` or `1` runs the classic single-threaded path; `>= 2`
    /// splits a job into chunking-feed, fingerprint-worker, in-order dedup
    /// and async-upload stages (one feeder + one uploader + the remainder
    /// as fingerprint workers). Output is byte-identical to the sequential
    /// path — only wall-clock and pipeline telemetry differ.
    pub backup_pipeline_threads: usize,

    /// Whether idempotent reads (GET / range GET / HEAD and their batched
    /// forms) go through the gray-failure hedging plane: a backup request
    /// is issued to a second endpoint after a quantile-derived delay and
    /// the first success wins. Only effective when the deployment's object
    /// store exposes more than one endpoint (`oss_endpoints >= 2`); with a
    /// single endpoint the plane is a pass-through that still scores
    /// endpoint health.
    pub hedged_reads: bool,
    /// Number of simulated OSS endpoints (independent request-routing
    /// targets) the internally built store spreads requests over. Hedging
    /// and the per-endpoint circuit breakers need at least 2 to have an
    /// alternative to route to. Ignored for externally attached stores.
    pub oss_endpoints: usize,
    /// Attempt budget of the retry wrapper the builder wires outermost
    /// around the store stack. `0` (the default) wires no retry layer —
    /// fault-handling stays exactly where each caller put it; `>= 1` wraps
    /// the stack in a `RetryingStore` with this many attempts and a
    /// per-wrapper salted jitter seed.
    pub retry_attempts: u32,
}

impl Default for SlimConfig {
    fn default() -> Self {
        SlimConfig {
            min_chunk_size: 1024,
            avg_chunk_size: 4 * 1024,
            max_chunk_size: 16 * 1024,
            segment_chunks: 128,
            sample_rate: 32,
            similar_index_samples: 16,
            container_capacity: 4 * 1024 * 1024,
            merge_threshold: 5,
            superchunk_min_members: 8,
            superchunk_max_members: 32,
            chunk_merging: true,
            skip_chunking: true,
            sparse_utilization_threshold: 0.30,
            container_rewrite_threshold: 0.20,
            law_window: 2048,
            restore_cache_mem: 64 * 1024 * 1024,
            restore_cache_disk: 256 * 1024 * 1024,
            prefetch_threads: 6,
            redundancy: true,
            redundancy_replica_versions: 4,
            parity_group_size: 4,
            compression: true,
            backup_pipeline_threads: 4,
            hedged_reads: true,
            oss_endpoints: 4,
            retry_attempts: 0,
        }
    }
}

impl SlimConfig {
    /// A configuration scaled down for unit tests: small chunks, small
    /// containers, small segments, so a few megabytes of input exercise all
    /// code paths (sealed containers, multi-segment recipes, sparse
    /// containers, superchunks).
    pub fn small_for_tests() -> Self {
        SlimConfig {
            min_chunk_size: 64,
            avg_chunk_size: 256,
            max_chunk_size: 1024,
            segment_chunks: 16,
            sample_rate: 4,
            similar_index_samples: 8,
            container_capacity: 8 * 1024,
            merge_threshold: 3,
            superchunk_min_members: 2,
            superchunk_max_members: 8,
            chunk_merging: true,
            skip_chunking: true,
            sparse_utilization_threshold: 0.30,
            container_rewrite_threshold: 0.20,
            law_window: 64,
            restore_cache_mem: 64 * 1024,
            restore_cache_disk: 256 * 1024,
            prefetch_threads: 2,
            redundancy: true,
            redundancy_replica_versions: 2,
            parity_group_size: 3,
            // Off by default so byte-level unit tests see stored == raw
            // sizes; the compressed paths are exercised explicitly by
            // `tests/compression.rs` via `with_compression(true)`.
            compression: false,
            // Sequential by default: byte-level unit tests stay on the
            // classic path; the pipeline is exercised explicitly by the
            // equivalence suite in `tests/pipeline_backup.rs`.
            backup_pipeline_threads: 0,
            // Hedging is on but inert on the instant network unit tests use
            // (the plane only engages once observed latency clears its
            // activation floor), so counters stay byte-identical to the
            // unhedged path; the chaos suite in `tests/hedging.rs` exercises
            // it explicitly under latency-bearing models.
            hedged_reads: true,
            oss_endpoints: 2,
            retry_attempts: 0,
        }
    }

    /// Validate invariants the hot paths rely on.
    pub fn validate(&self) -> Result<()> {
        if self.min_chunk_size == 0 {
            return Err(SlimError::InvalidConfig(
                "min_chunk_size must be > 0".into(),
            ));
        }
        if !(self.min_chunk_size <= self.avg_chunk_size
            && self.avg_chunk_size <= self.max_chunk_size)
        {
            return Err(SlimError::InvalidConfig(format!(
                "chunk sizes must satisfy min <= avg <= max, got {} <= {} <= {}",
                self.min_chunk_size, self.avg_chunk_size, self.max_chunk_size
            )));
        }
        if !self.avg_chunk_size.is_power_of_two() {
            return Err(SlimError::InvalidConfig(format!(
                "avg_chunk_size must be a power of two for CDC masks, got {}",
                self.avg_chunk_size
            )));
        }
        if self.segment_chunks == 0 {
            return Err(SlimError::InvalidConfig(
                "segment_chunks must be > 0".into(),
            ));
        }
        if self.container_capacity < self.max_chunk_size {
            return Err(SlimError::InvalidConfig(format!(
                "container_capacity ({}) must hold at least one max-size chunk ({})",
                self.container_capacity, self.max_chunk_size
            )));
        }
        if self.superchunk_max_members < 2 {
            return Err(SlimError::InvalidConfig(
                "superchunk_max_members must be >= 2".into(),
            ));
        }
        if !(2..=self.superchunk_max_members).contains(&self.superchunk_min_members) {
            return Err(SlimError::InvalidConfig(format!(
                "superchunk_min_members must be within [2, max], got {}",
                self.superchunk_min_members
            )));
        }
        for (name, v) in [
            (
                "sparse_utilization_threshold",
                self.sparse_utilization_threshold,
            ),
            (
                "container_rewrite_threshold",
                self.container_rewrite_threshold,
            ),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(SlimError::InvalidConfig(format!(
                    "{name} must be within [0, 1], got {v}"
                )));
            }
        }
        if self.law_window == 0 {
            return Err(SlimError::InvalidConfig("law_window must be > 0".into()));
        }
        if self.restore_cache_mem == 0 {
            return Err(SlimError::InvalidConfig(
                "restore_cache_mem must be > 0".into(),
            ));
        }
        if self.redundancy && self.parity_group_size == 0 {
            return Err(SlimError::InvalidConfig(
                "parity_group_size must be > 0 when redundancy is enabled".into(),
            ));
        }
        if self.backup_pipeline_threads > 256 {
            return Err(SlimError::InvalidConfig(format!(
                "backup_pipeline_threads must be <= 256, got {}",
                self.backup_pipeline_threads
            )));
        }
        if !(1..=64).contains(&self.oss_endpoints) {
            return Err(SlimError::InvalidConfig(format!(
                "oss_endpoints must be within [1, 64], got {}",
                self.oss_endpoints
            )));
        }
        if self.retry_attempts > 100 {
            return Err(SlimError::InvalidConfig(format!(
                "retry_attempts must be <= 100, got {}",
                self.retry_attempts
            )));
        }
        Ok(())
    }

    /// Builder-style toggle for the redundancy plane.
    pub fn with_redundancy(mut self, on: bool) -> Self {
        self.redundancy = on;
        self
    }

    /// Builder-style override of the chunk-size triple, keeping the
    /// conventional min = avg/4, max = avg*4 spread used in CDC literature.
    pub fn with_avg_chunk_size(mut self, avg: usize) -> Self {
        self.avg_chunk_size = avg;
        self.min_chunk_size = (avg / 4).max(1);
        self.max_chunk_size = avg * 4;
        self
    }

    /// Builder-style toggle for skip chunking.
    pub fn with_skip_chunking(mut self, on: bool) -> Self {
        self.skip_chunking = on;
        self
    }

    /// Builder-style toggle for chunk merging.
    pub fn with_chunk_merging(mut self, on: bool) -> Self {
        self.chunk_merging = on;
        self
    }

    /// Builder-style toggle for per-chunk container compression.
    pub fn with_compression(mut self, on: bool) -> Self {
        self.compression = on;
        self
    }

    /// Builder-style backup-pipeline thread budget (0 = sequential).
    pub fn with_backup_pipeline_threads(mut self, threads: usize) -> Self {
        self.backup_pipeline_threads = threads;
        self
    }

    /// Builder-style toggle for the hedged-read plane.
    pub fn with_hedged_reads(mut self, on: bool) -> Self {
        self.hedged_reads = on;
        self
    }

    /// Builder-style endpoint count for the internally built store.
    pub fn with_oss_endpoints(mut self, endpoints: usize) -> Self {
        self.oss_endpoints = endpoints;
        self
    }

    /// Builder-style retry-wrapper attempt budget (0 = no retry layer).
    pub fn with_retry_attempts(mut self, attempts: u32) -> Self {
        self.retry_attempts = attempts;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SlimConfig::default().validate().unwrap();
        SlimConfig::small_for_tests().validate().unwrap();
    }

    #[test]
    fn rejects_inverted_chunk_sizes() {
        let mut cfg = SlimConfig::default();
        cfg.min_chunk_size = cfg.max_chunk_size + 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_non_power_of_two_avg() {
        let mut cfg = SlimConfig::default();
        cfg.avg_chunk_size = 5000;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_tiny_container() {
        let mut cfg = SlimConfig::default();
        cfg.container_capacity = cfg.max_chunk_size - 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_out_of_range_thresholds() {
        let mut cfg = SlimConfig::default();
        cfg.sparse_utilization_threshold = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = SlimConfig::default();
        cfg.container_rewrite_threshold = -0.1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_parity_group() {
        let mut cfg = SlimConfig::default();
        cfg.parity_group_size = 0;
        assert!(cfg.validate().is_err());
        // Harmless when the redundancy plane is off.
        cfg.redundancy = false;
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_absurd_pipeline_thread_budget() {
        let cfg = SlimConfig::default().with_backup_pipeline_threads(257);
        assert!(cfg.validate().is_err());
        SlimConfig::default()
            .with_backup_pipeline_threads(256)
            .validate()
            .unwrap();
        SlimConfig::default()
            .with_backup_pipeline_threads(0)
            .validate()
            .unwrap();
    }

    #[test]
    fn rejects_bad_resilience_knobs() {
        let cfg = SlimConfig::default().with_oss_endpoints(0);
        assert!(cfg.validate().is_err());
        let cfg = SlimConfig::default().with_oss_endpoints(65);
        assert!(cfg.validate().is_err());
        let cfg = SlimConfig::default().with_retry_attempts(101);
        assert!(cfg.validate().is_err());
        SlimConfig::default()
            .with_oss_endpoints(64)
            .with_retry_attempts(100)
            .with_hedged_reads(false)
            .validate()
            .unwrap();
    }

    #[test]
    fn with_avg_chunk_size_keeps_spread() {
        let cfg = SlimConfig::default().with_avg_chunk_size(32 * 1024);
        assert_eq!(cfg.min_chunk_size, 8 * 1024);
        assert_eq!(cfg.max_chunk_size, 128 * 1024);
        cfg.validate().unwrap();
    }
}
