//! Capping (Lillibridge et al., FAST'13).
//!
//! A restore-oriented rewriting scheme: each fixed-size *segment* of the
//! backup stream may reference at most `cap` old containers. Duplicate
//! chunks whose containers don't make the segment's top-`cap` (ranked by how
//! many of the segment's chunks they serve) are rewritten into fresh
//! containers, bounding restore read amplification at the cost of some
//! dedup ratio. Identification uses an exact in-memory index, as in the
//! original paper.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use slim_chunking::{chunk_all, Chunker};
use slim_lnode::StorageLayer;
use slim_types::{ChunkRecord, ContainerId, FileId, Fingerprint, Result, SlimConfig, VersionId};

use crate::common::{persist_recipe, ContainerWriter};
use crate::stats::BaselineBackupStats;

/// The Capping deduplication system.
pub struct CappingSystem {
    storage: StorageLayer,
    config: SlimConfig,
    chunker: Box<dyn Chunker>,
    /// Exact fingerprint index: fp → authoritative record.
    index: HashMap<Fingerprint, ChunkRecord>,
    /// Maximum old containers one segment may reference.
    cap: usize,
    /// Chunks rewritten over this instance's lifetime.
    pub rewritten_chunks: u64,
}

impl CappingSystem {
    /// Capping with the given per-segment container cap.
    pub fn new(
        storage: StorageLayer,
        config: SlimConfig,
        chunker: Box<dyn Chunker>,
        cap: usize,
    ) -> Self {
        CappingSystem {
            storage,
            config,
            chunker,
            index: HashMap::new(),
            cap: cap.max(1),
            rewritten_chunks: 0,
        }
    }

    /// Entries in the exact in-memory fingerprint index (RAM footprint
    /// metric).
    pub fn index_entries(&self) -> usize {
        self.index.len()
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
            // Rank the old containers this segment's duplicates live in.
            let mut votes: HashMap<ContainerId, usize> = HashMap::new();
            for chunk in segment {
                if let Some(rec) = self.index.get(&chunk.fp) {
                    *votes.entry(rec.container_id).or_default() += 1;
                }
            }
            let mut ranked: Vec<(ContainerId, usize)> = votes.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
            let kept: HashSet<ContainerId> =
                ranked.iter().take(self.cap).map(|(c, _)| *c).collect();

            for chunk in segment {
                stats.chunks += 1;
                let rec = match self.index.get(&chunk.fp).copied() {
                    Some(hit) if kept.contains(&hit.container_id) => {
                        stats.duplicates += 1;
                        ChunkRecord::new(chunk.fp, hit.container_id, hit.size, 0)
                    }
                    Some(_) => {
                        // Over the cap: rewrite for restore locality.
                        let container = writer.push(chunk.fp, chunk.slice(data))?;
                        self.rewritten_chunks += 1;
                        let rec = ChunkRecord::new(chunk.fp, container, chunk.len() as u32, 0);
                        self.index.insert(chunk.fp, rec);
                        rec
                    }
                    None => {
                        let container = writer.push(chunk.fp, chunk.slice(data))?;
                        let rec = ChunkRecord::new(chunk.fp, container, chunk.len() as u32, 0);
                        self.index.insert(chunk.fp, rec);
                        rec
                    }
                };
                records.push(rec);
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_chunking::{ChunkSpec, FastCdcChunker};
    use slim_lnode::restore::{RestoreEngine, RestoreOptions};
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;
    use std::sync::Arc;

    fn make_system(cap: usize) -> (StorageLayer, CappingSystem, SlimConfig) {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let config = SlimConfig::small_for_tests();
        let chunker = Box::new(FastCdcChunker::new(ChunkSpec::from_config(&config)));
        (
            storage.clone(),
            CappingSystem::new(storage, config.clone(), chunker, cap),
            config,
        )
    }

    /// Build a fragmented history: each version keeps slivers of many old
    /// containers.
    fn fragmented_versions() -> Vec<Vec<u8>> {
        let mut versions = vec![data(1, 48_000)];
        for v in 1..6u64 {
            let prev = versions.last().unwrap().clone();
            let mut next = Vec::new();
            for i in 0..8usize {
                next.extend_from_slice(&prev[i * 6_000..i * 6_000 + 3_000]);
                next.extend_from_slice(&data(100 * v + i as u64, 3_000));
            }
            versions.push(next);
        }
        versions
    }

    #[test]
    fn roundtrip_and_rewrites_happen() {
        let (storage, mut capping, cfg) = make_system(2);
        let file = FileId::new("f");
        let versions = fragmented_versions();
        for (v, bytes) in versions.iter().enumerate() {
            capping
                .backup_file(&file, VersionId(v as u64), bytes)
                .unwrap();
        }
        assert!(
            capping.rewritten_chunks > 0,
            "fragmentation must trigger rewrites"
        );
        let engine = RestoreEngine::new(&storage, None);
        let opts = RestoreOptions::from_config(&cfg);
        for (v, expected) in versions.iter().enumerate() {
            let (out, _) = engine
                .restore_file(&file, VersionId(v as u64), &opts)
                .unwrap();
            assert_eq!(&out, expected, "version {v}");
        }
    }

    #[test]
    fn cap_bounds_containers_per_segment() {
        let (storage, mut capping, cfg) = make_system(2);
        let file = FileId::new("f");
        for (v, bytes) in fragmented_versions().iter().enumerate() {
            capping
                .backup_file(&file, VersionId(v as u64), bytes)
                .unwrap();
        }
        let last = VersionId(5);
        let recipe = storage.get_recipe(&file, last).unwrap();
        // Count distinct *pre-existing* containers per segment: new
        // containers created during v5's own backup are allowed beyond the
        // cap (they are the rewrite targets).
        for seg in &recipe.segments {
            let distinct: std::collections::HashSet<_> =
                seg.records.iter().map(|r| r.container_id).collect();
            // cap old + up to a couple of fresh write containers
            assert!(
                distinct.len() <= 2 + 1 + seg.records.len() / cfg.segment_chunks.max(1) + 2,
                "segment references too many containers: {}",
                distinct.len()
            );
        }
    }

    #[test]
    fn lower_cap_trades_dedup_for_locality() {
        let file = FileId::new("f");
        let versions = fragmented_versions();
        let run = |cap: usize| {
            let (_, mut sys, _) = make_system(cap);
            let mut stored = 0u64;
            for (v, bytes) in versions.iter().enumerate() {
                stored += sys
                    .backup_file(&file, VersionId(v as u64), bytes)
                    .unwrap()
                    .stored_bytes;
            }
            (stored, sys.rewritten_chunks)
        };
        let (stored_tight, rewrites_tight) = run(1);
        let (stored_loose, rewrites_loose) = run(16);
        assert!(rewrites_tight > rewrites_loose);
        assert!(
            stored_tight >= stored_loose,
            "tighter cap cannot store less: {stored_tight} vs {stored_loose}"
        );
    }
}
