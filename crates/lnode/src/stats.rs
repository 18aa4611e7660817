//! Job statistics.
//!
//! Backup jobs time each pipeline phase separately — chunking,
//! fingerprinting, index querying, others — because that breakdown *is*
//! Fig 2 and Fig 5(d) of the paper. Restore jobs count containers read and
//! bytes pulled from OSS, which is the read-amplification series of Fig 8.
//!
//! Each stats struct can [`emit`](BackupStats::emit) itself into a
//! telemetry [`Scope`] (canonically `lnode.<id>`), folding the per-job
//! phase timings into the shared span histograms and the counters into the
//! shared registry — so the same breakdowns are available fleet-wide
//! without threading stats structs around.

use std::time::Duration;

use slim_telemetry::Scope;

/// Statistics of one backup (deduplication) job.
#[derive(Debug, Clone, Default)]
pub struct BackupStats {
    /// Logical bytes processed.
    pub logical_bytes: u64,
    /// Bytes of new (unique) chunk payload written to containers.
    pub stored_bytes: u64,
    /// Total chunk records emitted.
    pub chunks: u64,
    /// Records confirmed duplicate.
    pub duplicates: u64,
    /// Duplicates confirmed by the skip-chunking fast path.
    pub skip_hits: u64,
    /// Skip attempts that failed verification (fell back to CDC).
    pub skip_misses: u64,
    /// Superchunks matched whole via Algorithm 1.
    pub super_hits: u64,
    /// Superchunk probes that failed (fingerprint mismatch).
    pub super_misses: u64,
    /// New superchunks created by history-aware chunk merging.
    pub superchunks_created: u64,
    /// Chunks absorbed into created superchunks.
    pub chunks_merged: u64,
    /// Segment recipes prefetched into the dedup cache.
    pub segments_prefetched: u64,

    /// Chunks consumed pre-fingerprinted from the parallel feed (pipelined
    /// backups only; zero on the sequential path).
    pub pipeline_chunks_fed: u64,
    /// Plain-CDC cuts computed inline because the feed was exhausted or
    /// misaligned (expected: zero — a canary, not a cost).
    pub pipeline_fallbacks: u64,
    /// Containers committed by the pipeline's async uploader stage.
    pub pipeline_async_uploads: u64,

    /// Chunks pushed through compressing container builders (zero when
    /// `SlimConfig::compression` is off).
    pub compress_chunks: u64,
    /// Raw payload bytes offered to the compressor. Note `stored_bytes`
    /// above stays in raw bytes — it feeds [`BackupStats::dedup_ratio`],
    /// which must be invariant under the compression knob.
    pub compress_raw_bytes: u64,
    /// Bytes actually written into container data objects (compressed
    /// where profitable, raw otherwise).
    pub compress_stored_bytes: u64,
    /// Chunks stored raw because compression was not strictly smaller.
    pub compress_incompressible: u64,

    /// Wall time of the whole job.
    pub wall_time: Duration,
    /// CPU time spent scanning for cut points (CDC).
    pub chunking_time: Duration,
    /// CPU time spent computing SHA-1 fingerprints.
    pub fingerprint_time: Duration,
    /// Time spent querying indexes and the dedup cache (including segment
    /// recipe prefetch decode).
    pub index_time: Duration,
    /// Time this job spent inside its own OSS calls (recipe-index fetch,
    /// segment-recipe prefetches, container/recipe uploads) — measured
    /// per call, so concurrent jobs do not pollute each other's numbers.
    pub network_time: Duration,
    /// Time the pipelined dedup stage spent blocked waiting on the chunk
    /// feed (zero on the sequential path). High stall with low network time
    /// means the job is CPU-bound and more fingerprint workers would help.
    pub pipeline_stall_time: Duration,
    /// CPU time spent compressing unique chunk payloads (zero when the
    /// compression knob is off).
    pub compress_time: Duration,
    /// The share of the chunking, fingerprint, network and compress times
    /// above that pipeline worker threads spent, not the dedup thread (zero
    /// on the sequential path). Those sums can exceed the job's wall time;
    /// [`BackupStats::other_time`] needs the dedup thread's own clock.
    pub worker_time: Duration,
}

impl BackupStats {
    /// Deduplication ratio of this job (§VII-B definition).
    pub fn dedup_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        // Saturating: aggressive merge settings can legitimately store more
        // than the logical size in one version; the ratio floors at 0.
        self.logical_bytes.saturating_sub(self.stored_bytes) as f64 / self.logical_bytes as f64
    }

    /// Throughput in MB/s over the wall time.
    pub fn throughput_mbps(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.logical_bytes as f64 / (1024.0 * 1024.0) / secs
    }

    /// Dedup-loop time not attributed to a named phase: the job's wall time
    /// minus what the dedup thread itself spent chunking, fingerprinting,
    /// querying indexes, in OSS calls, compressing, and stalled on the feed.
    pub fn other_time(&self) -> Duration {
        let phases = self.chunking_time
            + self.fingerprint_time
            + self.index_time
            + self.network_time
            + self.compress_time;
        self.wall_time
            .saturating_sub(phases.saturating_sub(self.worker_time))
            .saturating_sub(self.pipeline_stall_time)
    }

    /// Fold a sealed container's compression accounting into this job.
    pub fn add_compression(&mut self, c: &slim_types::CompressionStats) {
        self.compress_chunks += c.chunks;
        self.compress_raw_bytes += c.raw_bytes;
        self.compress_stored_bytes += c.stored_bytes;
        self.compress_incompressible += c.incompressible;
        self.compress_time += c.time;
    }

    /// Fold this job into a telemetry scope: one observation per phase
    /// span (`<scope>.span.{backup,chunking,fingerprinting,index,
    /// container_io,other}`) and the job counters added to the scope's
    /// totals.
    pub fn emit(&self, scope: &Scope) {
        scope.counter("backup_jobs").inc();
        scope.counter("logical_bytes").add(self.logical_bytes);
        scope.counter("stored_bytes").add(self.stored_bytes);
        scope.counter("chunks").add(self.chunks);
        scope.counter("duplicates").add(self.duplicates);
        scope.counter("skip_hits").add(self.skip_hits);
        scope.counter("skip_misses").add(self.skip_misses);
        scope.counter("super_hits").add(self.super_hits);
        scope.counter("super_misses").add(self.super_misses);
        scope
            .counter("superchunks_created")
            .add(self.superchunks_created);
        scope.counter("chunks_merged").add(self.chunks_merged);
        scope
            .counter("segments_prefetched")
            .add(self.segments_prefetched);
        scope
            .counter("pipeline_chunks_fed")
            .add(self.pipeline_chunks_fed);
        scope
            .counter("pipeline_fallbacks")
            .add(self.pipeline_fallbacks);
        scope
            .counter("pipeline_async_uploads")
            .add(self.pipeline_async_uploads);
        scope.counter("compress.chunks").add(self.compress_chunks);
        scope
            .counter("compress.raw_bytes")
            .add(self.compress_raw_bytes);
        scope
            .counter("compress.stored_bytes")
            .add(self.compress_stored_bytes);
        scope
            .counter("compress.incompressible")
            .add(self.compress_incompressible);
        scope.record_span("backup", self.wall_time);
        scope.record_span("chunking", self.chunking_time);
        scope.record_span("fingerprinting", self.fingerprint_time);
        scope.record_span("index", self.index_time);
        scope.record_span("container_io", self.network_time);
        scope.record_span("pipeline_stall", self.pipeline_stall_time);
        scope.record_span("compress", self.compress_time);
        scope.record_span("other", self.other_time());
    }

    /// Merge another job's stats into this one (multi-file versions).
    pub fn merge(&mut self, other: &BackupStats) {
        self.logical_bytes += other.logical_bytes;
        self.stored_bytes += other.stored_bytes;
        self.chunks += other.chunks;
        self.duplicates += other.duplicates;
        self.skip_hits += other.skip_hits;
        self.skip_misses += other.skip_misses;
        self.super_hits += other.super_hits;
        self.super_misses += other.super_misses;
        self.superchunks_created += other.superchunks_created;
        self.chunks_merged += other.chunks_merged;
        self.segments_prefetched += other.segments_prefetched;
        self.pipeline_chunks_fed += other.pipeline_chunks_fed;
        self.pipeline_fallbacks += other.pipeline_fallbacks;
        self.pipeline_async_uploads += other.pipeline_async_uploads;
        self.compress_chunks += other.compress_chunks;
        self.compress_raw_bytes += other.compress_raw_bytes;
        self.compress_stored_bytes += other.compress_stored_bytes;
        self.compress_incompressible += other.compress_incompressible;
        self.wall_time += other.wall_time;
        self.chunking_time += other.chunking_time;
        self.fingerprint_time += other.fingerprint_time;
        self.index_time += other.index_time;
        self.network_time += other.network_time;
        self.pipeline_stall_time += other.pipeline_stall_time;
        self.compress_time += other.compress_time;
        self.worker_time += other.worker_time;
    }
}

/// Statistics of one restore job.
#[derive(Debug, Clone, Default)]
pub struct RestoreStats {
    /// Bytes of restored output.
    pub restored_bytes: u64,
    /// Container data objects read from OSS.
    pub containers_read: u64,
    /// Bytes read from OSS (data + metadata).
    pub oss_bytes_read: u64,
    /// Chunk lookups served from the restore cache.
    pub cache_hits: u64,
    /// Chunk lookups that required a container read.
    pub cache_misses: u64,
    /// Chunks relocated by reverse dedup that needed a global-index lookup.
    pub relocation_lookups: u64,
    /// Chunks served from the prefetch buffer without blocking.
    pub prefetch_hits: u64,
    /// Wall time of the whole job.
    pub wall_time: Duration,
}

impl RestoreStats {
    /// Restore throughput in MB/s.
    pub fn throughput_mbps(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.restored_bytes as f64 / (1024.0 * 1024.0) / secs
    }

    /// Containers read per 100 MB restored — the Fig 8 read-amplification
    /// metric.
    pub fn containers_per_100mb(&self) -> f64 {
        if self.restored_bytes == 0 {
            return 0.0;
        }
        self.containers_read as f64 * (100.0 * 1024.0 * 1024.0) / self.restored_bytes as f64
    }

    /// Fold this job into a telemetry scope (see [`BackupStats::emit`]).
    pub fn emit(&self, scope: &Scope) {
        scope.counter("restore_jobs").inc();
        scope.counter("restored_bytes").add(self.restored_bytes);
        scope.counter("containers_read").add(self.containers_read);
        scope.counter("oss_bytes_read").add(self.oss_bytes_read);
        scope.counter("cache_hits").add(self.cache_hits);
        scope.counter("cache_misses").add(self.cache_misses);
        scope
            .counter("relocation_lookups")
            .add(self.relocation_lookups);
        scope.counter("prefetch_hits").add(self.prefetch_hits);
        scope.record_span("restore", self.wall_time);
    }

    /// Merge another job's stats into this one.
    pub fn merge(&mut self, other: &RestoreStats) {
        self.restored_bytes += other.restored_bytes;
        self.containers_read += other.containers_read;
        self.oss_bytes_read += other.oss_bytes_read;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.relocation_lookups += other.relocation_lookups;
        self.prefetch_hits += other.prefetch_hits;
        self.wall_time += other.wall_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_ratio_and_throughput() {
        let stats = BackupStats {
            logical_bytes: 1000,
            stored_bytes: 160,
            wall_time: Duration::from_secs(2),
            ..Default::default()
        };
        assert!((stats.dedup_ratio() - 0.84).abs() < 1e-9);
        assert!(stats.throughput_mbps() > 0.0);
        assert_eq!(BackupStats::default().dedup_ratio(), 0.0);
        assert_eq!(BackupStats::default().throughput_mbps(), 0.0);
    }

    #[test]
    fn other_time_never_negative() {
        let stats = BackupStats {
            wall_time: Duration::from_secs(1),
            chunking_time: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(stats.other_time(), Duration::ZERO);
    }

    #[test]
    fn other_time_is_the_dedup_threads_own_remainder() {
        // A pipelined job: 1 s of wall, during which worker threads summed
        // 2.4 s of hashing/uploading/compressing and the dedup thread itself
        // spent 0.2 s in the index, 0.1 s hashing inline and 0.3 s stalled.
        let ms = Duration::from_millis;
        let stats = BackupStats {
            wall_time: ms(1000),
            chunking_time: ms(500),
            fingerprint_time: ms(1200 + 100),
            network_time: ms(300),
            compress_time: ms(400),
            index_time: ms(200),
            pipeline_stall_time: ms(300),
            worker_time: ms(500 + 1200 + 300 + 400),
            ..Default::default()
        };
        assert_eq!(stats.other_time(), ms(1000 - 200 - 100 - 300));
    }

    #[test]
    fn containers_per_100mb() {
        let stats = RestoreStats {
            restored_bytes: 200 * 1024 * 1024,
            containers_read: 50,
            ..Default::default()
        };
        assert!((stats.containers_per_100mb() - 25.0).abs() < 1e-9);
        assert_eq!(RestoreStats::default().containers_per_100mb(), 0.0);
    }

    #[test]
    fn emit_folds_into_scope() {
        let registry = slim_telemetry::Registry::new();
        let scope = registry.scope("lnode").child("0");
        let stats = BackupStats {
            logical_bytes: 1000,
            stored_bytes: 160,
            chunks: 9,
            duplicates: 4,
            wall_time: Duration::from_micros(100),
            chunking_time: Duration::from_micros(40),
            ..Default::default()
        };
        stats.emit(&scope);
        stats.emit(&scope);
        let restore = RestoreStats {
            restored_bytes: 500,
            containers_read: 2,
            wall_time: Duration::from_micros(30),
            ..Default::default()
        };
        restore.emit(&scope);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lnode.0.backup_jobs"), 2);
        assert_eq!(snap.counter("lnode.0.logical_bytes"), 2000);
        assert_eq!(snap.counter("lnode.0.chunks"), 18);
        assert_eq!(snap.counter("lnode.0.restored_bytes"), 500);
        let chunking = snap.span("lnode.0", "chunking").unwrap();
        assert_eq!(chunking.count, 2);
        assert_eq!(chunking.sum, 80_000);
        assert_eq!(snap.span("lnode.0", "restore").unwrap().count, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BackupStats {
            chunks: 5,
            duplicates: 2,
            ..Default::default()
        };
        let b = BackupStats {
            chunks: 7,
            duplicates: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.chunks, 12);
        assert_eq!(a.duplicates, 5);
        let mut ra = RestoreStats {
            containers_read: 1,
            ..Default::default()
        };
        ra.merge(&RestoreStats {
            containers_read: 2,
            ..Default::default()
        });
        assert_eq!(ra.containers_read, 3);
    }
}
