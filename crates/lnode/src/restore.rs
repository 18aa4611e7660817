//! The online restore pipeline (§V-A).
//!
//! Replays a recipe into the original file bytes using the full-vision cache
//! and LAW-based prefetching. Containers are read at most once per job (given
//! adequate cache capacity); chunks relocated by the G-node's reverse
//! deduplication are chased through the global index — the extra lookup the
//! paper accepts for old versions (§VI-A).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use slim_index::GlobalIndex;
use slim_types::{
    ChunkRecord, FileId, Fingerprint, Recipe, Result, SlimConfig, SlimError, VersionId,
};

use crate::fv_cache::FullVisionCache;
use crate::prefetch::Prefetcher;
use crate::stats::RestoreStats;
use crate::storage::StorageLayer;

/// Tunables of one restore job.
#[derive(Debug, Clone)]
pub struct RestoreOptions {
    /// Capacity of the in-memory cache tier.
    pub cache_mem: usize,
    /// Capacity of the on-disk cache tier.
    pub cache_disk: usize,
    /// Look-ahead window length in chunk records.
    pub law_window: usize,
    /// Prefetch threads (0 disables prefetching).
    pub prefetch_threads: usize,
}

impl RestoreOptions {
    /// Options from the system config.
    pub fn from_config(cfg: &SlimConfig) -> Self {
        RestoreOptions {
            cache_mem: cfg.restore_cache_mem,
            cache_disk: cfg.restore_cache_disk,
            law_window: cfg.law_window,
            prefetch_threads: cfg.prefetch_threads,
        }
    }

    /// Disable prefetching (Fig 8(a–c) measure the caches alone).
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch_threads = 0;
        self
    }
}

/// Upper bound on the output preallocation of an in-memory restore. The
/// recipe's `logical_bytes` is untrusted input here: a corrupt or hostile
/// recipe must not make us reserve unbounded memory (or truncate the
/// reservation through a `u64 as usize` cast on 32-bit targets) before a
/// single chunk has been validated. The `Vec` still grows to the true size
/// as assembled bytes arrive; this only caps the up-front hint.
const MAX_PREALLOC_BYTES: usize = 256 * 1024 * 1024;

/// Checked, clamped capacity hint for the restore output buffer.
fn prealloc_hint(logical_bytes: u64) -> usize {
    usize::try_from(logical_bytes)
        .unwrap_or(usize::MAX)
        .min(MAX_PREALLOC_BYTES)
}

/// The restore engine of an L-node.
pub struct RestoreEngine<'a> {
    storage: &'a StorageLayer,
    /// Needed to chase chunks relocated by reverse deduplication; restores
    /// of never-reverse-deduped versions do not touch it.
    global: Option<&'a GlobalIndex>,
}

impl<'a> RestoreEngine<'a> {
    /// Engine over the storage layer, optionally with the global index for
    /// relocated chunks.
    pub fn new(storage: &'a StorageLayer, global: Option<&'a GlobalIndex>) -> Self {
        RestoreEngine { storage, global }
    }

    /// Restore `file` at `version`, returning its bytes and job statistics.
    pub fn restore_file(
        &self,
        file: &FileId,
        version: VersionId,
        options: &RestoreOptions,
    ) -> Result<(Vec<u8>, RestoreStats)> {
        let start = Instant::now();
        let recipe = self.storage.get_recipe(file, version)?;
        let (out, mut stats) = self.restore_recipe(&recipe, options)?;
        stats.wall_time = start.elapsed();
        Ok((out, stats))
    }

    /// Restore an already-loaded recipe into memory.
    pub fn restore_recipe(
        &self,
        recipe: &Recipe,
        options: &RestoreOptions,
    ) -> Result<(Vec<u8>, RestoreStats)> {
        let mut out = Vec::with_capacity(prealloc_hint(recipe.logical_bytes()));
        let stats = self.restore_recipe_to(recipe, options, &mut out)?;
        Ok((out, stats))
    }

    /// Restore `file` at `version` into a streaming sink (constant memory in
    /// the output: bytes leave as they are assembled — the restore cache is
    /// the only buffer).
    pub fn restore_file_to(
        &self,
        file: &FileId,
        version: VersionId,
        options: &RestoreOptions,
        sink: &mut dyn std::io::Write,
    ) -> Result<RestoreStats> {
        let start = Instant::now();
        let recipe = self.storage.get_recipe(file, version)?;
        let mut stats = self.restore_recipe_to(&recipe, options, sink)?;
        stats.wall_time = start.elapsed();
        Ok(stats)
    }

    /// Core restore loop, writing into any sink.
    pub fn restore_recipe_to(
        &self,
        recipe: &Recipe,
        options: &RestoreOptions,
        sink: &mut dyn std::io::Write,
    ) -> Result<RestoreStats> {
        let records: Vec<ChunkRecord> = recipe.records().copied().collect();
        let mut stats = RestoreStats::default();
        if records.is_empty() {
            return Ok(stats);
        }

        let mut cache = FullVisionCache::new(options.cache_mem, options.cache_disk, recipe);
        let mut prefetcher = Prefetcher::new(self.storage.clone(), options.prefetch_threads);

        // Containers discovered to have lost chunks to reverse dedup / SCC:
        // records pointing at them resolve through the global index *before*
        // prefetch scheduling, so old-version restores keep the benefit of
        // LAW prefetching (§VI-A's extra lookup, paid off the critical path).
        let mut stale: HashSet<slim_types::ContainerId> = HashSet::new();

        // Look-ahead window: multiset of upcoming fingerprints.
        let law = options.law_window.max(1);
        let mut law_counts: HashMap<Fingerprint, u32> = HashMap::new();
        for rec in records.iter().take(law) {
            *law_counts.entry(rec.fp).or_default() += 1;
            self.schedule(rec, &stale, &prefetcher);
        }

        for i in 0..records.len() {
            let rec = records[i];
            let chunk = match cache.get(&rec.fp) {
                Some(bytes) => {
                    stats.cache_hits += 1;
                    bytes
                }
                None => {
                    stats.cache_misses += 1;
                    self.fault_in(&rec, &mut cache, &prefetcher, &mut stale, &mut stats)?
                }
            };
            debug_assert_eq!(chunk.len(), rec.size as usize);
            sink.write_all(&chunk)?;
            stats.restored_bytes += chunk.len() as u64;
            cache.consume(&rec.fp);

            // Slide the LAW forward.
            if let Some(cnt) = law_counts.get_mut(&rec.fp) {
                *cnt -= 1;
                if *cnt == 0 {
                    law_counts.remove(&rec.fp);
                }
            }
            if let Some(next) = records.get(i + law) {
                *law_counts.entry(next.fp).or_default() += 1;
                self.schedule(next, &stale, &prefetcher);
            }
            cache.enforce(|fp| law_counts.contains_key(fp));
        }

        // Quiesce the workers first: a container scheduled by the LAW but
        // never taken may still be mid-read, and the read-amplification
        // metrics must include it deterministically.
        prefetcher.quiesce();
        stats.containers_read = prefetcher.containers_read();
        stats.oss_bytes_read = prefetcher.bytes_read();
        Ok(stats)
    }

    /// Schedule the container a record will need, resolving through the
    /// global index when the stated container is known to be stale.
    fn schedule(
        &self,
        rec: &ChunkRecord,
        stale: &HashSet<slim_types::ContainerId>,
        prefetcher: &Prefetcher,
    ) {
        if stale.contains(&rec.container_id) {
            if let Some(global) = self.global {
                if let Ok(Some(current)) = global.get(&rec.fp) {
                    prefetcher.schedule(current);
                    return;
                }
            }
        }
        prefetcher.schedule(rec.container_id);
    }

    /// Read the container holding `rec`, admit its useful chunks, and return
    /// the target chunk — chasing a relocation through the global index if
    /// the recorded container no longer holds a live copy.
    fn fault_in(
        &self,
        rec: &ChunkRecord,
        cache: &mut FullVisionCache,
        prefetcher: &Prefetcher,
        stale: &mut HashSet<slim_types::ContainerId>,
        stats: &mut RestoreStats,
    ) -> Result<bytes::Bytes> {
        if !stale.contains(&rec.container_id) {
            if let Some(bytes) =
                self.try_container(rec, rec.container_id, cache, prefetcher, stats)?
            {
                return Ok(bytes);
            }
            stale.insert(rec.container_id);
        }
        // Relocated (reverse dedup / SCC / rewrite): ask the global index.
        stats.relocation_lookups += 1;
        let Some(global) = self.global else {
            return Err(SlimError::ChunkUnresolvable {
                fp: rec.fp.to_hex(),
                detail: format!(
                    "not live in {} and no global index available",
                    rec.container_id
                ),
            });
        };
        let Some(current) = global.get(&rec.fp)? else {
            return Err(SlimError::ChunkUnresolvable {
                fp: rec.fp.to_hex(),
                detail: "missing from global index".into(),
            });
        };
        match self.try_container(rec, current, cache, prefetcher, stats)? {
            Some(bytes) => Ok(bytes),
            None => Err(SlimError::ChunkUnresolvable {
                fp: rec.fp.to_hex(),
                detail: format!("global index points at {current} but chunk is not live there"),
            }),
        }
    }

    /// Fetch `container` and admit its live useful chunks; returns the
    /// target chunk if it is live there.
    fn try_container(
        &self,
        rec: &ChunkRecord,
        container: slim_types::ContainerId,
        cache: &mut FullVisionCache,
        prefetcher: &Prefetcher,
        stats: &mut RestoreStats,
    ) -> Result<Option<bytes::Bytes>> {
        let ((data, meta), from_prefetch) = match prefetcher.take(container) {
            Ok(v) => v,
            Err(SlimError::ContainerMissing(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        if from_prefetch {
            stats.prefetch_hits += 1;
        }
        let mut target = None;
        for entry in &meta.entries {
            if entry.deleted {
                continue;
            }
            // Checked extraction (and decompression): a poisoned entry —
            // bit-flipped meta whose CRC collided, say — surfaces as
            // `Corrupt`, never as a slice panic.
            let payload = entry.payload_from(&data)?;
            if entry.fp == rec.fp {
                target = Some(payload.clone());
            }
            cache.admit(entry.fp, payload);
        }
        Ok(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backup::BackupPipeline;
    use slim_chunking::{ChunkSpec, FastCdcChunker};
    use slim_index::SimilarFileIndex;
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;
    use std::sync::Arc;

    struct Env {
        storage: StorageLayer,
        similar: SimilarFileIndex,
        cfg: SlimConfig,
    }

    fn setup() -> Env {
        Env {
            storage: StorageLayer::open(Arc::new(Oss::in_memory())),
            similar: SimilarFileIndex::new(),
            cfg: SlimConfig::small_for_tests(),
        }
    }

    impl Env {
        fn backup(&self, file: &FileId, version: u64, bytes: &[u8]) {
            let chunker = FastCdcChunker::new(ChunkSpec::from_config(&self.cfg));
            BackupPipeline::new(&self.storage, &self.similar, &chunker, &self.cfg)
                .backup_file(file, VersionId(version), bytes)
                .unwrap();
        }

        fn restore(
            &self,
            file: &FileId,
            version: u64,
            opts: &RestoreOptions,
        ) -> (Vec<u8>, RestoreStats) {
            RestoreEngine::new(&self.storage, None)
                .restore_file(file, VersionId(version), opts)
                .unwrap()
        }
    }

    fn opts(cfg: &SlimConfig) -> RestoreOptions {
        RestoreOptions::from_config(cfg)
    }

    #[test]
    fn roundtrip_single_version() {
        let env = setup();
        let file = FileId::new("f");
        let input = data(1, 64_000);
        env.backup(&file, 0, &input);
        let (out, stats) = env.restore(&file, 0, &opts(&env.cfg));
        assert_eq!(out, input);
        assert!(stats.containers_read > 0);
        assert_eq!(stats.restored_bytes, input.len() as u64);
    }

    #[test]
    fn roundtrip_many_versions() {
        let env = setup();
        let file = FileId::new("f");
        let mut inputs = Vec::new();
        let mut cur = data(2, 48_000);
        for v in 0..6u64 {
            env.backup(&file, v, &cur);
            inputs.push(cur.clone());
            // mutate for next version
            let patch = data(100 + v, 700);
            let at = 5_000 + (v as usize * 6_000);
            cur[at..at + 700].copy_from_slice(&patch);
        }
        for (v, expected) in inputs.iter().enumerate() {
            let (out, _) = env.restore(&file, v as u64, &opts(&env.cfg));
            assert_eq!(&out, expected, "version {v}");
        }
    }

    #[test]
    fn containers_read_at_most_once_with_fv_cache() {
        let env = setup();
        let file = FileId::new("f");
        // Several versions so chunks scatter across containers.
        let mut cur = data(3, 64_000);
        for v in 0..5u64 {
            env.backup(&file, v, &cur);
            let patch = data(200 + v, 800);
            cur[(v as usize * 9_000)..(v as usize * 9_000) + 800].copy_from_slice(&patch);
        }
        let (out, stats) = env.restore(&file, 4, &opts(&env.cfg));
        assert!(!out.is_empty());
        let distinct: std::collections::HashSet<_> = env
            .storage
            .get_recipe(&file, VersionId(4))
            .unwrap()
            .records()
            .map(|r| r.container_id)
            .collect();
        assert!(
            stats.containers_read <= distinct.len() as u64,
            "read {} containers but recipe references only {} distinct",
            stats.containers_read,
            distinct.len()
        );
    }

    #[test]
    fn self_referencing_stream_restores_and_reads_once() {
        let env = setup();
        let file = FileId::new("f");
        let block = data(4, 16_000);
        let mut input = block.clone();
        input.extend_from_slice(&block);
        input.extend_from_slice(&block);
        env.backup(&file, 0, &input);
        let (out, stats) = env.restore(&file, 0, &opts(&env.cfg));
        assert_eq!(out, input);
        let distinct: std::collections::HashSet<_> = env
            .storage
            .get_recipe(&file, VersionId(0))
            .unwrap()
            .records()
            .map(|r| r.container_id)
            .collect();
        assert!(stats.containers_read <= distinct.len() as u64);
    }

    #[test]
    fn prefetching_produces_identical_bytes() {
        let env = setup();
        let file = FileId::new("f");
        let input = data(5, 80_000);
        env.backup(&file, 0, &input);
        let with = opts(&env.cfg);
        let without = opts(&env.cfg).without_prefetch();
        let (a, sa) = env.restore(&file, 0, &with);
        let (b, sb) = env.restore(&file, 0, &without);
        assert_eq!(a, b);
        assert_eq!(a, input);
        assert!(sa.prefetch_hits > 0, "prefetcher should serve containers");
        assert_eq!(sb.prefetch_hits, 0);
    }

    #[test]
    fn tiny_cache_still_correct() {
        let env = setup();
        let file = FileId::new("f");
        let input = data(6, 60_000);
        env.backup(&file, 0, &input);
        let mut o = opts(&env.cfg);
        o.cache_mem = 2 * 1024;
        o.cache_disk = 4 * 1024;
        o.law_window = 4;
        let (out, _) = env.restore(&file, 0, &o);
        assert_eq!(out, input);
    }

    #[test]
    fn missing_version_is_an_error() {
        let env = setup();
        let err = RestoreEngine::new(&env.storage, None)
            .restore_file(&FileId::new("ghost"), VersionId(0), &opts(&env.cfg))
            .unwrap_err();
        assert!(matches!(err, SlimError::ObjectNotFound(_)));
    }

    #[test]
    fn empty_file_restores_empty() {
        let env = setup();
        let file = FileId::new("empty");
        env.backup(&file, 0, &[]);
        let (out, stats) = env.restore(&file, 0, &opts(&env.cfg));
        assert!(out.is_empty());
        assert_eq!(stats.containers_read, 0);
    }

    #[test]
    fn streaming_restore_matches_in_memory() {
        let env = setup();
        let file = FileId::new("f");
        let input = data(8, 40_000);
        env.backup(&file, 0, &input);
        let engine = RestoreEngine::new(&env.storage, None);
        let mut sink = Vec::new();
        let stats = engine
            .restore_file_to(&file, VersionId(0), &opts(&env.cfg), &mut sink)
            .unwrap();
        assert_eq!(sink, input);
        assert_eq!(stats.restored_bytes, input.len() as u64);
        let (in_mem, _) = env.restore(&file, 0, &opts(&env.cfg));
        assert_eq!(in_mem, sink);
    }

    #[test]
    fn superchunk_recipes_restore() {
        let mut env = setup();
        env.cfg.merge_threshold = 2;
        let file = FileId::new("f");
        let input = data(7, 50_000);
        for v in 0..5u64 {
            env.backup(&file, v, &input);
        }
        // Later versions are dominated by superchunks; they must restore.
        let (out, _) = env.restore(&file, 4, &opts(&env.cfg));
        assert_eq!(out, input);
    }

    #[test]
    fn prealloc_hint_is_clamped() {
        assert_eq!(prealloc_hint(0), 0);
        assert_eq!(prealloc_hint(1000), 1000);
        assert_eq!(prealloc_hint(MAX_PREALLOC_BYTES as u64), MAX_PREALLOC_BYTES);
        // A hostile recipe claiming absurd logical sizes cannot force an
        // unbounded (or, on 32-bit, truncated) reservation.
        assert_eq!(
            prealloc_hint(MAX_PREALLOC_BYTES as u64 + 1),
            MAX_PREALLOC_BYTES
        );
        assert_eq!(prealloc_hint(u64::MAX), MAX_PREALLOC_BYTES);
    }
}
