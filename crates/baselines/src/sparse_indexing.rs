//! Sparse Indexing (Lillibridge et al., FAST'09).
//!
//! Inline dedup with a *sampled* in-memory index: only chunks whose
//! fingerprint satisfies `fp mod R == 0` (the *hooks*) are indexed, each
//! mapping to the manifests (segment recipes) that contain it. An incoming
//! segment votes with its hooks, loads the top-k *champion* manifests, and
//! dedups against their chunks — logical locality recovers the unsampled
//! duplicates. RAM stays tiny; dedup is near-exact.

use std::collections::HashMap;
use std::time::Instant;

use slim_chunking::{chunk_all, Chunker};
use slim_lnode::StorageLayer;
use slim_types::codec::{Reader, Writer};
use slim_types::{ChunkRecord, FileId, Fingerprint, Result, SlimConfig, VersionId};

use crate::common::{persist_recipe, ContainerWriter, LruMap};
use crate::stats::BaselineBackupStats;

/// Champions loaded per segment.
const CHAMPIONS: usize = 2;
/// Cap on manifest ids per hook (the paper caps posting lists).
const MAX_MANIFESTS_PER_HOOK: usize = 8;
/// Manifest cache capacity.
const MANIFEST_CACHE: usize = 32;

type Manifest = HashMap<Fingerprint, ChunkRecord>;

/// The Sparse Indexing deduplication system.
pub struct SparseIndexingSystem {
    storage: StorageLayer,
    config: SlimConfig,
    chunker: Box<dyn Chunker>,
    /// Hook fingerprint → manifests containing it.
    sparse_index: HashMap<Fingerprint, Vec<u64>>,
    cache: LruMap<u64, Manifest>,
    next_manifest_id: u64,
}

impl SparseIndexingSystem {
    /// A Sparse Indexing instance over the shared storage layer.
    pub fn new(storage: StorageLayer, config: SlimConfig, chunker: Box<dyn Chunker>) -> Self {
        SparseIndexingSystem {
            storage,
            config,
            chunker,
            sparse_index: HashMap::new(),
            cache: LruMap::new(MANIFEST_CACHE),
            next_manifest_id: 0,
        }
    }

    fn manifest_key(id: u64) -> String {
        format!("sparse-indexing/manifests/{id:012}")
    }

    fn persist_manifest(&mut self, records: &[ChunkRecord]) -> Result<u64> {
        let id = self.next_manifest_id;
        self.next_manifest_id += 1;
        let mut w = Writer::new();
        w.u32(records.len() as u32);
        for rec in records {
            w.fingerprint(&rec.fp);
            w.u64(rec.container_id.0);
            w.u32(rec.size);
        }
        self.storage
            .oss()
            .put(&Self::manifest_key(id), w.freeze())?;
        let manifest: Manifest = records
            .iter()
            .map(|r| (r.fp, ChunkRecord::new(r.fp, r.container_id, r.size, 0)))
            .collect();
        self.cache.insert(id, manifest);
        Ok(id)
    }

    fn load_manifest(&mut self, id: u64, stats: &mut BaselineBackupStats) -> Result<()> {
        if self.cache.contains(&id) {
            return Ok(());
        }
        stats.index_fetches += 1;
        let buf = self.storage.oss().get(&Self::manifest_key(id))?;
        let mut r = Reader::new(&buf, "sparse-indexing manifest");
        let n = r.count(20 + 8 + 4)?;
        let mut manifest = HashMap::with_capacity(n);
        for _ in 0..n {
            let fp = r.fingerprint()?;
            let container = slim_types::ContainerId(r.u64()?);
            let size = r.u32()?;
            manifest.insert(fp, ChunkRecord::new(fp, container, size, 0));
        }
        r.finish()?;
        self.cache.insert(id, manifest);
        Ok(())
    }

    /// Pick the champion manifests for a segment by hook votes.
    fn champions(&self, hooks: &[Fingerprint]) -> Vec<u64> {
        let mut votes: HashMap<u64, usize> = HashMap::new();
        for hook in hooks {
            if let Some(ids) = self.sparse_index.get(hook) {
                for &id in ids {
                    *votes.entry(id).or_default() += 1;
                }
            }
        }
        let mut ranked: Vec<(u64, usize)> = votes.into_iter().collect();
        // Most votes first; newest manifest breaks ties.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        ranked
            .into_iter()
            .take(CHAMPIONS)
            .map(|(id, _)| id)
            .collect()
    }

    /// Back up one file.
    pub fn backup_file(
        &mut self,
        file: &FileId,
        version: VersionId,
        data: &[u8],
    ) -> Result<BaselineBackupStats> {
        let start = Instant::now();
        let mut stats = BaselineBackupStats {
            logical_bytes: data.len() as u64,
            ..Default::default()
        };
        let chunks = chunk_all(self.chunker.as_ref(), data);
        let mut writer = ContainerWriter::new(self.storage.clone(), self.config.container_capacity);
        let mut records: Vec<ChunkRecord> = Vec::with_capacity(chunks.len());

        for segment in chunks.chunks(self.config.segment_chunks.max(1)) {
            let hooks: Vec<Fingerprint> = segment
                .iter()
                .map(|c| c.fp)
                .filter(|fp| fp.is_sample(self.config.sample_rate))
                .collect();
            let champions = self.champions(&hooks);
            for id in &champions {
                self.load_manifest(*id, &mut stats)?;
            }
            let mut seg_records = Vec::with_capacity(segment.len());
            for chunk in segment {
                stats.chunks += 1;
                let mut found = None;
                for id in &champions {
                    if let Some(manifest) = self.cache.get(id) {
                        if let Some(rec) = manifest.get(&chunk.fp) {
                            found = Some(*rec);
                            break;
                        }
                    }
                }
                let rec = match found {
                    Some(hit) => {
                        stats.duplicates += 1;
                        ChunkRecord::new(chunk.fp, hit.container_id, hit.size, 0)
                    }
                    None => {
                        let container = writer.push(chunk.fp, chunk.slice(data))?;
                        ChunkRecord::new(chunk.fp, container, chunk.len() as u32, 0)
                    }
                };
                seg_records.push(rec);
            }
            // Persist the new manifest and register its hooks.
            let manifest_id = self.persist_manifest(&seg_records)?;
            for hook in hooks {
                let ids = self.sparse_index.entry(hook).or_default();
                ids.push(manifest_id);
                if ids.len() > MAX_MANIFESTS_PER_HOOK {
                    ids.remove(0);
                }
            }
            records.extend(seg_records);
        }
        writer.seal()?;
        stats.stored_bytes = writer.stored_bytes;
        persist_recipe(
            &self.storage,
            file,
            version,
            records,
            self.config.segment_chunks,
            self.config.sample_rate,
        )?;
        stats.wall_time = start.elapsed();
        Ok(stats)
    }

    /// Entries in the in-memory sparse index (RAM footprint metric).
    pub fn index_entries(&self) -> usize {
        self.sparse_index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_chunking::{ChunkSpec, FastCdcChunker};
    use slim_lnode::restore::{RestoreEngine, RestoreOptions};
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;
    use std::sync::Arc;

    fn make_system() -> (StorageLayer, SparseIndexingSystem, SlimConfig) {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let config = SlimConfig::small_for_tests();
        let chunker = Box::new(FastCdcChunker::new(ChunkSpec::from_config(&config)));
        (
            storage.clone(),
            SparseIndexingSystem::new(storage, config.clone(), chunker),
            config,
        )
    }

    #[test]
    fn identical_version_dedups_near_exactly() {
        let (_s, mut sys, _c) = make_system();
        let file = FileId::new("f");
        let input = data(1, 60_000);
        sys.backup_file(&file, VersionId(0), &input).unwrap();
        let s = sys.backup_file(&file, VersionId(1), &input).unwrap();
        assert!(s.dedup_ratio() > 0.9, "ratio {}", s.dedup_ratio());
        assert!(sys.index_entries() > 0);
        assert!(
            sys.index_entries() < s.chunks as usize,
            "index must be sparse: {} entries for {} chunks",
            sys.index_entries(),
            s.chunks
        );
    }

    #[test]
    fn mutated_version_still_dedups_via_champions() {
        let (_s, mut sys, _c) = make_system();
        let file = FileId::new("f");
        let input = data(2, 80_000);
        sys.backup_file(&file, VersionId(0), &input).unwrap();
        let mut mutated = input.clone();
        mutated[40_000..40_400].copy_from_slice(&data(7, 400));
        let s = sys.backup_file(&file, VersionId(1), &mutated).unwrap();
        assert!(s.dedup_ratio() > 0.8, "ratio {}", s.dedup_ratio());
        assert!(s.index_fetches > 0, "champions must be fetched");
    }

    #[test]
    fn restores_through_common_format() {
        let (storage, mut sys, cfg) = make_system();
        let file = FileId::new("f");
        let input = data(3, 50_000);
        sys.backup_file(&file, VersionId(0), &input).unwrap();
        sys.backup_file(&file, VersionId(1), &input).unwrap();
        let engine = RestoreEngine::new(&storage, None);
        let opts = RestoreOptions::from_config(&cfg);
        assert_eq!(
            engine.restore_file(&file, VersionId(1), &opts).unwrap().0,
            input
        );
    }

    #[test]
    fn hook_posting_lists_are_capped() {
        let (_s, mut sys, _c) = make_system();
        let file = FileId::new("f");
        let input = data(4, 30_000);
        for v in 0..12u64 {
            sys.backup_file(&file, VersionId(v), &input).unwrap();
        }
        let max_postings = sys
            .sparse_index
            .values()
            .map(|v| v.len())
            .max()
            .unwrap_or(0);
        assert!(max_postings <= MAX_MANIFESTS_PER_HOOK);
    }
}
