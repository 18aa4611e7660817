//! Restore-cache baselines of Fig 8.
//!
//! Three prior restore designs, all reading the common recipe/container
//! formats so they are directly comparable with SLIMSTORE's full-vision
//! cache:
//!
//! * [`LruContainerRestore`] — the conventional container-grained LRU cache;
//! * [`OptContainerRestore`] — the "OPT" cache of HAR (Fu et al., ATC'14):
//!   container-grained with Belady's replacement computed over a look-ahead
//!   window of the recipe;
//! * [`AlaccRestore`] — ALACC (Cao et al., FAST'18): a forward assembly area
//!   (FAA) that materializes a span of the output at a time, combined with a
//!   chunk-grained cache fed by look-ahead admission.
//!
//! None of them can see past their look-ahead window — the limitation the
//! full-vision cache removes (§V-A).

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use bytes::Bytes;
use slim_lnode::stats::RestoreStats;
use slim_lnode::StorageLayer;
use slim_types::{ChunkRecord, ContainerId, Fingerprint, Recipe, Result, SlimError};

/// A restore strategy over the common formats.
pub trait RestoreCacheSim {
    /// Restore a recipe, returning the bytes and the I/O statistics.
    fn restore(
        &mut self,
        storage: &StorageLayer,
        recipe: &Recipe,
    ) -> Result<(Vec<u8>, RestoreStats)>;

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// A fetched container, indexed for chunk extraction.
struct LoadedContainer {
    data: Bytes,
    live: HashMap<Fingerprint, (u32, u32)>,
    bytes: usize,
}

fn load_container(
    storage: &StorageLayer,
    id: ContainerId,
    stats: &mut RestoreStats,
) -> Result<LoadedContainer> {
    let meta = storage.get_container_meta(id)?;
    let data = storage.get_container_data(id)?;
    stats.containers_read += 1;
    stats.oss_bytes_read += data.len() as u64 + meta.encode().len() as u64;
    Ok(LoadedContainer {
        bytes: data.len(),
        live: meta.live_map(),
        data,
    })
}

fn chunk_of(container: &LoadedContainer, rec: &ChunkRecord) -> Result<Bytes> {
    let &(off, len) = container
        .live
        .get(&rec.fp)
        .ok_or_else(|| SlimError::ChunkUnresolvable {
            fp: rec.fp.to_hex(),
            detail: format!("not live in {}", rec.container_id),
        })?;
    Ok(container.data.slice(off as usize..(off + len) as usize))
}

// ---------------------------------------------------------------------------
// LRU container cache
// ---------------------------------------------------------------------------

/// Conventional container-grained LRU restore cache.
pub struct LruContainerRestore {
    capacity_bytes: usize,
}

impl LruContainerRestore {
    /// Cache bounded to `capacity_bytes` of container payload.
    pub fn new(capacity_bytes: usize) -> Self {
        LruContainerRestore {
            capacity_bytes: capacity_bytes.max(1),
        }
    }
}

impl RestoreCacheSim for LruContainerRestore {
    fn restore(
        &mut self,
        storage: &StorageLayer,
        recipe: &Recipe,
    ) -> Result<(Vec<u8>, RestoreStats)> {
        let start = Instant::now();
        let mut stats = RestoreStats::default();
        let mut out = Vec::with_capacity(recipe.logical_bytes() as usize);
        let mut cache: HashMap<ContainerId, LoadedContainer> = HashMap::new();
        let mut order: VecDeque<ContainerId> = VecDeque::new();
        let mut cached_bytes = 0usize;

        for rec in recipe.records() {
            if !cache.contains_key(&rec.container_id) {
                stats.cache_misses += 1;
                let loaded = load_container(storage, rec.container_id, &mut stats)?;
                cached_bytes += loaded.bytes;
                cache.insert(rec.container_id, loaded);
                order.push_back(rec.container_id);
                while cached_bytes > self.capacity_bytes && order.len() > 1 {
                    let victim = order.pop_front().expect("len > 1");
                    if let Some(gone) = cache.remove(&victim) {
                        cached_bytes -= gone.bytes;
                    }
                }
            } else {
                stats.cache_hits += 1;
                // Refresh recency.
                if let Some(pos) = order.iter().position(|&c| c == rec.container_id) {
                    order.remove(pos);
                    order.push_back(rec.container_id);
                }
            }
            let chunk = chunk_of(&cache[&rec.container_id], rec)?;
            stats.restored_bytes += chunk.len() as u64;
            out.extend_from_slice(&chunk);
        }
        stats.wall_time = start.elapsed();
        Ok((out, stats))
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

// ---------------------------------------------------------------------------
// OPT (Belady with LAW) container cache
// ---------------------------------------------------------------------------

/// HAR's OPT cache: container-grained, evicting the container whose next use
/// lies farthest in the look-ahead window (or outside it).
pub struct OptContainerRestore {
    capacity_bytes: usize,
    law_window: usize,
}

impl OptContainerRestore {
    /// Cache of `capacity_bytes` with a `law_window`-record look-ahead.
    pub fn new(capacity_bytes: usize, law_window: usize) -> Self {
        OptContainerRestore {
            capacity_bytes: capacity_bytes.max(1),
            law_window: law_window.max(1),
        }
    }
}

impl RestoreCacheSim for OptContainerRestore {
    fn restore(
        &mut self,
        storage: &StorageLayer,
        recipe: &Recipe,
    ) -> Result<(Vec<u8>, RestoreStats)> {
        let start = Instant::now();
        let mut stats = RestoreStats::default();
        let records: Vec<&ChunkRecord> = recipe.records().collect();
        let mut out = Vec::with_capacity(recipe.logical_bytes() as usize);

        // Positions of every container in the record sequence.
        let mut positions: HashMap<ContainerId, VecDeque<usize>> = HashMap::new();
        for (i, rec) in records.iter().enumerate() {
            positions.entry(rec.container_id).or_default().push_back(i);
        }
        let mut cache: HashMap<ContainerId, LoadedContainer> = HashMap::new();
        let mut cached_bytes = 0usize;

        for (i, rec) in records.iter().enumerate() {
            // Retire past positions.
            if let Some(pos) = positions.get_mut(&rec.container_id) {
                while pos.front().is_some_and(|&p| p <= i) {
                    pos.pop_front();
                }
            }
            if !cache.contains_key(&rec.container_id) {
                stats.cache_misses += 1;
                let loaded = load_container(storage, rec.container_id, &mut stats)?;
                cached_bytes += loaded.bytes;
                cache.insert(rec.container_id, loaded);
                // Belady eviction over the LAW horizon.
                while cached_bytes > self.capacity_bytes && cache.len() > 1 {
                    let horizon = i + self.law_window;
                    let victim = cache
                        .keys()
                        .filter(|&&c| c != rec.container_id)
                        .max_by_key(|&&c| {
                            positions
                                .get(&c)
                                .and_then(|p| p.front().copied())
                                .filter(|&p| p <= horizon)
                                .map(|p| p as u64)
                                .unwrap_or(u64::MAX) // unused in LAW: evict first
                        })
                        .copied();
                    let Some(victim) = victim else { break };
                    if let Some(gone) = cache.remove(&victim) {
                        cached_bytes -= gone.bytes;
                    }
                }
            } else {
                stats.cache_hits += 1;
            }
            let chunk = chunk_of(&cache[&rec.container_id], rec)?;
            stats.restored_bytes += chunk.len() as u64;
            out.extend_from_slice(&chunk);
        }
        stats.wall_time = start.elapsed();
        Ok((out, stats))
    }

    fn name(&self) -> &'static str {
        "opt"
    }
}

// ---------------------------------------------------------------------------
// ALACC: forward assembly area + chunk cache
// ---------------------------------------------------------------------------

/// ALACC's restore: a forward assembly area materializes a span of output at
/// a time (each container read fills every FAA slot it can), and a
/// chunk-grained cache carries chunks needed beyond the FAA but inside the
/// look-ahead window.
pub struct AlaccRestore {
    faa_bytes: usize,
    chunk_cache_bytes: usize,
    law_window: usize,
}

impl AlaccRestore {
    /// ALACC with the given assembly-area size, chunk-cache size and LAW.
    pub fn new(faa_bytes: usize, chunk_cache_bytes: usize, law_window: usize) -> Self {
        AlaccRestore {
            faa_bytes: faa_bytes.max(1),
            chunk_cache_bytes,
            law_window: law_window.max(1),
        }
    }

    /// The plain forward-assembly-area restore of Lillibridge et al.
    /// (FAST'13): an assembly area and nothing else — no chunk cache, no
    /// look-ahead admission. ALACC's own baseline.
    pub fn faa_only(faa_bytes: usize) -> Self {
        AlaccRestore {
            faa_bytes: faa_bytes.max(1),
            chunk_cache_bytes: 0,
            law_window: 1,
        }
    }
}

impl RestoreCacheSim for AlaccRestore {
    fn restore(
        &mut self,
        storage: &StorageLayer,
        recipe: &Recipe,
    ) -> Result<(Vec<u8>, RestoreStats)> {
        let start = Instant::now();
        let mut stats = RestoreStats::default();
        let records: Vec<&ChunkRecord> = recipe.records().collect();
        let mut out = Vec::with_capacity(recipe.logical_bytes() as usize);

        // Chunk cache (LRU by bytes).
        let mut cache: HashMap<Fingerprint, Bytes> = HashMap::new();
        let mut cache_order: VecDeque<Fingerprint> = VecDeque::new();
        let mut cache_bytes = 0usize;

        let mut i = 0usize;
        while i < records.len() {
            // Delimit the FAA span [i, j).
            let mut j = i;
            let mut span_bytes = 0usize;
            while j < records.len() {
                let next = records[j].size as usize;
                if span_bytes + next > self.faa_bytes && j > i {
                    break;
                }
                span_bytes += next;
                j += 1;
            }
            let mut slots: Vec<Option<Bytes>> = vec![None; j - i];
            // Serve from the chunk cache first.
            for k in i..j {
                if let Some(chunk) = cache.get(&records[k].fp) {
                    slots[k - i] = Some(chunk.clone());
                    stats.cache_hits += 1;
                }
            }
            // Fill remaining slots container by container.
            for k in i..j {
                if slots[k - i].is_some() {
                    continue;
                }
                stats.cache_misses += 1;
                let loaded = load_container(storage, records[k].container_id, &mut stats)?;
                // Fill every FAA slot this container can serve.
                for l in i..j {
                    if slots[l - i].is_none() {
                        if let Some(&(off, len)) = loaded.live.get(&records[l].fp) {
                            slots[l - i] =
                                Some(loaded.data.slice(off as usize..(off + len) as usize));
                        }
                    }
                }
                // Look-ahead admission: chunks needed beyond the FAA but
                // inside the LAW enter the chunk cache.
                let law_end = (i + self.law_window).min(records.len());
                for rec in records.iter().take(law_end).skip(j) {
                    if cache.contains_key(&rec.fp) {
                        continue;
                    }
                    if let Some(&(off, len)) = loaded.live.get(&rec.fp) {
                        let chunk = loaded.data.slice(off as usize..(off + len) as usize);
                        cache_bytes += chunk.len();
                        cache_order.push_back(rec.fp);
                        cache.insert(rec.fp, chunk);
                    }
                }
                while cache_bytes > self.chunk_cache_bytes {
                    let Some(victim) = cache_order.pop_front() else {
                        break;
                    };
                    if let Some(gone) = cache.remove(&victim) {
                        cache_bytes -= gone.len();
                    }
                }
            }
            for (k, slot) in slots.into_iter().enumerate() {
                let chunk = slot.ok_or_else(|| SlimError::ChunkUnresolvable {
                    fp: records[i + k].fp.to_hex(),
                    detail: "FAA slot unfilled".into(),
                })?;
                stats.restored_bytes += chunk.len() as u64;
                out.extend_from_slice(&chunk);
            }
            i = j;
        }
        stats.wall_time = start.elapsed();
        Ok((out, stats))
    }

    fn name(&self) -> &'static str {
        "alacc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_chunking::{ChunkSpec, FastCdcChunker};
    use slim_index::SimilarFileIndex;
    use slim_lnode::backup::BackupPipeline;
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;
    use slim_types::{FileId, SlimConfig, VersionId};
    use std::sync::Arc;

    /// Build a fragmented multi-version store and return (storage, recipe,
    /// expected bytes) for the last version.
    fn fragmented_store() -> (StorageLayer, Recipe, Vec<u8>) {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let similar = SimilarFileIndex::new();
        let cfg = SlimConfig::small_for_tests();
        let chunker = FastCdcChunker::new(ChunkSpec::from_config(&cfg));
        let pipeline = BackupPipeline::new(&storage, &similar, &chunker, &cfg);
        let file = FileId::new("f");
        let mut cur = data(1, 48_000);
        for v in 0..5u64 {
            pipeline.backup_file(&file, VersionId(v), &cur).unwrap();
            let patch = data(40 + v, 1_500);
            let at = 2_000 + v as usize * 8_000;
            cur[at..at + 1_500].copy_from_slice(&patch);
        }
        pipeline.backup_file(&file, VersionId(5), &cur).unwrap();
        let recipe = storage.get_recipe(&file, VersionId(5)).unwrap();
        (storage, recipe, cur)
    }

    #[test]
    fn all_caches_restore_correctly() {
        let (storage, recipe, expected) = fragmented_store();
        let mut sims: Vec<Box<dyn RestoreCacheSim>> = vec![
            Box::new(LruContainerRestore::new(64 * 1024)),
            Box::new(OptContainerRestore::new(64 * 1024, 64)),
            Box::new(AlaccRestore::new(8 * 1024, 32 * 1024, 64)),
        ];
        for sim in &mut sims {
            let (out, stats) = sim.restore(&storage, &recipe).unwrap();
            assert_eq!(out, expected, "{} corrupted the restore", sim.name());
            assert!(stats.containers_read > 0);
            assert_eq!(stats.restored_bytes, expected.len() as u64);
        }
    }

    #[test]
    fn tiny_caches_still_correct_but_read_more() {
        let (storage, recipe, expected) = fragmented_store();
        let mut big = LruContainerRestore::new(10 * 1024 * 1024);
        let mut small = LruContainerRestore::new(8 * 1024);
        let (out_big, stats_big) = big.restore(&storage, &recipe).unwrap();
        let (out_small, stats_small) = small.restore(&storage, &recipe).unwrap();
        assert_eq!(out_big, expected);
        assert_eq!(out_small, expected);
        assert!(
            stats_small.containers_read >= stats_big.containers_read,
            "smaller cache cannot read fewer containers"
        );
    }

    #[test]
    fn opt_beats_lru_under_pressure() {
        let (storage, recipe, _) = fragmented_store();
        let cap = 12 * 1024;
        let (_, lru) = LruContainerRestore::new(cap)
            .restore(&storage, &recipe)
            .unwrap();
        let (_, opt) = OptContainerRestore::new(cap, 128)
            .restore(&storage, &recipe)
            .unwrap();
        assert!(
            opt.containers_read <= lru.containers_read,
            "Belady with LAW must not lose to LRU: opt={} lru={}",
            opt.containers_read,
            lru.containers_read
        );
    }

    #[test]
    fn alacc_chunk_cache_reduces_rereads() {
        let (storage, recipe, _) = fragmented_store();
        let (_, no_cache) = AlaccRestore::new(8 * 1024, 0, 64)
            .restore(&storage, &recipe)
            .unwrap();
        let (_, with_cache) = AlaccRestore::new(8 * 1024, 128 * 1024, 64)
            .restore(&storage, &recipe)
            .unwrap();
        assert!(
            with_cache.containers_read <= no_cache.containers_read,
            "chunk cache must not increase reads: {} vs {}",
            with_cache.containers_read,
            no_cache.containers_read
        );
    }

    #[test]
    fn faa_only_restores_correctly_but_reads_more() {
        let (storage, recipe, expected) = fragmented_store();
        let (out, faa) = AlaccRestore::faa_only(8 * 1024)
            .restore(&storage, &recipe)
            .unwrap();
        assert_eq!(out, expected);
        let (_, alacc) = AlaccRestore::new(8 * 1024, 128 * 1024, 64)
            .restore(&storage, &recipe)
            .unwrap();
        assert!(
            faa.containers_read >= alacc.containers_read,
            "plain FAA cannot beat ALACC: {} vs {}",
            faa.containers_read,
            alacc.containers_read
        );
    }

    #[test]
    fn empty_recipe_restores_empty() {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let recipe = Recipe::new();
        for sim in [
            &mut LruContainerRestore::new(1024) as &mut dyn RestoreCacheSim,
            &mut OptContainerRestore::new(1024, 8),
            &mut AlaccRestore::new(1024, 1024, 8),
        ] {
            let (out, stats) = sim.restore(&storage, &recipe).unwrap();
            assert!(out.is_empty());
            assert_eq!(stats.containers_read, 0);
        }
    }
}
