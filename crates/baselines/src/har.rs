//! HAR — History-Aware Rewriting (Fu et al., ATC'14).
//!
//! HAR attacks restore fragmentation at *backup* time: each backup records
//! the utilization of every container it references; containers below the
//! threshold are declared sparse and remembered. During the **next** backup,
//! duplicate chunks that live in a remembered sparse container are rewritten
//! (stored again in fresh containers) instead of referenced, trading a little
//! dedup ratio for restore locality. The benefit arrives one version late —
//! the contrast the paper draws with SLIMSTORE's SCC, whose compaction
//! applies to the current version (§V-B).
//!
//! Duplicate identification uses an exact in-memory fingerprint index, as in
//! the original paper.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use slim_chunking::{chunk_all, Chunker};
use slim_lnode::StorageLayer;
use slim_types::{ChunkRecord, ContainerId, FileId, Fingerprint, Result, SlimConfig, VersionId};

use crate::common::{persist_recipe, ContainerWriter};
use crate::stats::BaselineBackupStats;

/// The HAR deduplication system.
pub struct HarSystem {
    storage: StorageLayer,
    config: SlimConfig,
    chunker: Box<dyn Chunker>,
    /// Exact fingerprint index: fp → authoritative record.
    index: HashMap<Fingerprint, ChunkRecord>,
    /// Total chunks per container (for utilization).
    container_totals: HashMap<ContainerId, u32>,
    /// Sparse containers identified by the previous backup; their chunks are
    /// rewritten in this backup.
    rewrite_set: HashSet<ContainerId>,
    /// Chunks rewritten in the lifetime of this instance.
    pub rewritten_chunks: u64,
}

impl HarSystem {
    /// A HAR instance over the shared storage layer.
    pub fn new(storage: StorageLayer, config: SlimConfig, chunker: Box<dyn Chunker>) -> Self {
        HarSystem {
            storage,
            config,
            chunker,
            index: HashMap::new(),
            container_totals: HashMap::new(),
            rewrite_set: HashSet::new(),
            rewritten_chunks: 0,
        }
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
        // Utilization bookkeeping for *this* backup.
        let mut used: HashMap<ContainerId, HashSet<Fingerprint>> = HashMap::new();

        for chunk in &chunks {
            stats.chunks += 1;
            let rec = match self.index.get(&chunk.fp).copied() {
                Some(hit) if self.rewrite_set.contains(&hit.container_id) => {
                    // Duplicate in a sparse container: rewrite for locality.
                    let container = writer.push(chunk.fp, chunk.slice(data))?;
                    self.rewritten_chunks += 1;
                    let rec = ChunkRecord::new(chunk.fp, container, chunk.len() as u32, 0);
                    self.index.insert(chunk.fp, rec);
                    rec
                }
                Some(hit) => {
                    stats.duplicates += 1;
                    ChunkRecord::new(chunk.fp, hit.container_id, hit.size, 0)
                }
                None => {
                    let container = writer.push(chunk.fp, chunk.slice(data))?;
                    let rec = ChunkRecord::new(chunk.fp, container, chunk.len() as u32, 0);
                    self.index.insert(chunk.fp, rec);
                    rec
                }
            };
            used.entry(rec.container_id).or_default().insert(rec.fp);
            records.push(rec);
        }
        writer.seal()?;
        stats.stored_bytes = writer.stored_bytes;

        // Record totals for containers created by this backup.
        for id in &writer.sealed {
            let meta = self.storage.get_container_meta(*id)?;
            self.container_totals
                .insert(*id, meta.total_chunks() as u32);
        }

        // Identify sparse containers for the *next* backup.
        self.rewrite_set.clear();
        for (container, fps) in &used {
            let Some(&total) = self.container_totals.get(container) else {
                continue;
            };
            if total == 0 {
                continue;
            }
            let utilization = fps.len() as f64 / total as f64;
            if utilization < self.config.sparse_utilization_threshold {
                self.rewrite_set.insert(*container);
            }
        }

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

    /// Containers currently scheduled for rewriting.
    pub fn sparse_containers(&self) -> usize {
        self.rewrite_set.len()
    }

    /// Entries in the exact in-memory fingerprint index (RAM footprint
    /// metric; HAR keeps every chunk resident).
    pub fn index_entries(&self) -> usize {
        self.index.len()
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

    fn make_system() -> (StorageLayer, HarSystem, SlimConfig) {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let config = SlimConfig::small_for_tests();
        let chunker = Box::new(FastCdcChunker::new(ChunkSpec::from_config(&config)));
        (
            storage.clone(),
            HarSystem::new(storage, config.clone(), chunker),
            config,
        )
    }

    #[test]
    fn exact_dedup_on_identical_content() {
        let (_s, mut har, _c) = make_system();
        let file = FileId::new("f");
        let input = data(1, 50_000);
        har.backup_file(&file, VersionId(0), &input).unwrap();
        let s = har.backup_file(&file, VersionId(1), &input).unwrap();
        // Exact index: everything except any rewrites is a duplicate.
        assert!(s.dedup_ratio() > 0.95, "ratio {}", s.dedup_ratio());
    }

    #[test]
    fn sparse_containers_get_rewritten_next_version() {
        let (_s, mut har, _c) = make_system();
        let file = FileId::new("f");
        // v0 stores a big file; v1 keeps small *scattered* slivers — one per
        // v0 container — so those containers become sparse; v2 should
        // rewrite the slivers.
        let v0 = data(2, 64_000);
        har.backup_file(&file, VersionId(0), &v0).unwrap();
        let filler = data(3, 56_000);
        let mut v1 = Vec::new();
        for i in 0..8usize {
            v1.extend_from_slice(&v0[i * 8_000..i * 8_000 + 1_000]);
            v1.extend_from_slice(&filler[i * 7_000..(i + 1) * 7_000]);
        }
        har.backup_file(&file, VersionId(1), &v1).unwrap();
        assert!(
            har.sparse_containers() > 0,
            "v1 must flag v0's containers sparse"
        );
        let before = har.rewritten_chunks;
        har.backup_file(&file, VersionId(2), &v1).unwrap();
        assert!(
            har.rewritten_chunks > before,
            "v2 must rewrite chunks from sparse containers"
        );
    }

    #[test]
    fn restores_through_common_format() {
        let (storage, mut har, cfg) = make_system();
        let file = FileId::new("f");
        let input = data(4, 40_000);
        har.backup_file(&file, VersionId(0), &input).unwrap();
        let mut v1 = input.clone();
        v1[20_000..20_200].copy_from_slice(&data(5, 200));
        har.backup_file(&file, VersionId(1), &v1).unwrap();
        let engine = RestoreEngine::new(&storage, None);
        let opts = RestoreOptions::from_config(&cfg);
        assert_eq!(
            engine.restore_file(&file, VersionId(0), &opts).unwrap().0,
            input
        );
        assert_eq!(
            engine.restore_file(&file, VersionId(1), &opts).unwrap().0,
            v1
        );
    }
}
