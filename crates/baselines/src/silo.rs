//! SiLO (Xia et al., ATC'11): similarity + locality deduplication.
//!
//! SiLO groups chunks into *segments* and segments into *blocks*. A small
//! in-memory similarity-hash table (SHTable) maps each segment's
//! representative fingerprint (its minimum) to the block containing it; a
//! probe that hits loads the whole block — exploiting locality to catch the
//! neighbours of similar segments — into an LRU block cache. Chunks are
//! deduplicated against the cached blocks only, so RAM stays small at the
//! cost of some missed duplicates (near-exact dedup).

use std::collections::HashMap;
use std::time::Instant;

use slim_chunking::{chunk_all, Chunker};
use slim_lnode::StorageLayer;
use slim_types::codec::{Reader, Writer};
use slim_types::{ChunkRecord, FileId, Fingerprint, Result, SlimConfig, VersionId};

use crate::common::{persist_recipe, ContainerWriter, LruMap};
use crate::stats::BaselineBackupStats;

/// How many segments form one block.
const SEGMENTS_PER_BLOCK: usize = 8;
/// Block cache capacity, in blocks.
const BLOCK_CACHE_BLOCKS: usize = 16;

type Block = HashMap<Fingerprint, ChunkRecord>;

/// The SiLO deduplication system.
pub struct SiloSystem {
    storage: StorageLayer,
    config: SlimConfig,
    chunker: Box<dyn Chunker>,
    /// SHTable: segment representative fingerprint → block id.
    shtable: HashMap<Fingerprint, u64>,
    cache: LruMap<u64, Block>,
    /// Segments accumulated into the block under construction.
    write_block: Block,
    write_block_segments: usize,
    write_block_reps: Vec<Fingerprint>,
    next_block_id: u64,
}

impl SiloSystem {
    /// A SiLO instance over the shared storage layer.
    pub fn new(storage: StorageLayer, config: SlimConfig, chunker: Box<dyn Chunker>) -> Self {
        SiloSystem {
            storage,
            config,
            chunker,
            shtable: HashMap::new(),
            cache: LruMap::new(BLOCK_CACHE_BLOCKS),
            write_block: HashMap::new(),
            write_block_segments: 0,
            write_block_reps: Vec::new(),
            next_block_id: 0,
        }
    }

    fn block_key(id: u64) -> String {
        format!("silo/blocks/{id:012}")
    }

    fn persist_block(&mut self) -> Result<()> {
        if self.write_block.is_empty() {
            return Ok(());
        }
        let id = self.next_block_id;
        self.next_block_id += 1;
        let mut w = Writer::new();
        w.u32(self.write_block.len() as u32);
        for (fp, rec) in &self.write_block {
            w.fingerprint(fp);
            w.u64(rec.container_id.0);
            w.u32(rec.size);
        }
        self.storage.oss().put(&Self::block_key(id), w.freeze())?;
        for rep in self.write_block_reps.drain(..) {
            self.shtable.insert(rep, id);
        }
        let block = std::mem::take(&mut self.write_block);
        self.cache.insert(id, block);
        self.write_block_segments = 0;
        Ok(())
    }

    fn load_block(&mut self, id: u64) -> Result<()> {
        if self.cache.contains(&id) {
            return Ok(());
        }
        let buf = self.storage.oss().get(&Self::block_key(id))?;
        let mut r = Reader::new(&buf, "silo block");
        let n = r.count(20 + 8 + 4)?;
        let mut block = HashMap::with_capacity(n);
        for _ in 0..n {
            let fp = r.fingerprint()?;
            let container = slim_types::ContainerId(r.u64()?);
            let size = r.u32()?;
            block.insert(fp, ChunkRecord::new(fp, container, size, 0));
        }
        r.finish()?;
        self.cache.insert(id, block);
        Ok(())
    }

    fn find_cached(&mut self, fp: &Fingerprint) -> Option<ChunkRecord> {
        if let Some(rec) = self.write_block.get(fp) {
            return Some(*rec);
        }
        for (_, block) in self.cache.iter_mru() {
            if let Some(rec) = block.get(fp) {
                return Some(*rec);
            }
        }
        None
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
            // Representative fingerprint: the minimum of the segment.
            let rep = segment
                .iter()
                .map(|c| c.fp)
                .min()
                .expect("non-empty segment");
            if let Some(&block_id) = self.shtable.get(&rep) {
                if !self.cache.contains(&block_id) {
                    stats.index_fetches += 1;
                }
                self.load_block(block_id)?;
            }
            let mut seg_records = Vec::with_capacity(segment.len());
            for chunk in segment {
                stats.chunks += 1;
                let rec = match self.find_cached(&chunk.fp) {
                    Some(found) => {
                        stats.duplicates += 1;
                        ChunkRecord::new(chunk.fp, found.container_id, found.size, 0)
                    }
                    None => {
                        let container = writer.push(chunk.fp, chunk.slice(data))?;
                        ChunkRecord::new(chunk.fp, container, chunk.len() as u32, 0)
                    }
                };
                seg_records.push(rec);
            }
            // Append the segment to the write block.
            for rec in &seg_records {
                self.write_block.insert(rec.fp, *rec);
            }
            self.write_block_reps.push(rep);
            self.write_block_segments += 1;
            if self.write_block_segments >= SEGMENTS_PER_BLOCK {
                self.persist_block()?;
            }
            records.extend(seg_records);
        }
        writer.seal()?;
        self.persist_block()?;
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

    /// Size of the in-memory SHTable (RAM footprint metric).
    pub fn shtable_entries(&self) -> usize {
        self.shtable.len()
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

    fn make_system() -> (StorageLayer, SiloSystem, SlimConfig) {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let config = SlimConfig::small_for_tests();
        let chunker = Box::new(FastCdcChunker::new(ChunkSpec::from_config(&config)));
        (
            storage.clone(),
            SiloSystem::new(storage, config.clone(), chunker),
            config,
        )
    }

    #[test]
    fn second_version_dedups() {
        let (_storage, mut silo, _cfg) = make_system();
        let file = FileId::new("f");
        let input = data(1, 60_000);
        let s0 = silo.backup_file(&file, VersionId(0), &input).unwrap();
        assert_eq!(s0.duplicates, 0);
        let s1 = silo.backup_file(&file, VersionId(1), &input).unwrap();
        assert!(
            s1.dedup_ratio() > 0.9,
            "identical content should dedup: {}",
            s1.dedup_ratio()
        );
        assert!(silo.shtable_entries() > 0);
    }

    #[test]
    fn restores_through_common_format() {
        let (storage, mut silo, cfg) = make_system();
        let file = FileId::new("f");
        let input = data(2, 40_000);
        silo.backup_file(&file, VersionId(0), &input).unwrap();
        let mut v1 = input.clone();
        v1[10_000..10_300].copy_from_slice(&data(9, 300));
        silo.backup_file(&file, VersionId(1), &v1).unwrap();
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

    #[test]
    fn near_exact_misses_are_possible_but_bounded() {
        let (_storage, mut silo, _cfg) = make_system();
        let file = FileId::new("f");
        let input = data(3, 80_000);
        silo.backup_file(&file, VersionId(0), &input).unwrap();
        let mut mutated = input.clone();
        for at in [5_000usize, 25_000, 45_000, 65_000] {
            mutated[at..at + 200].copy_from_slice(&data(at as u64, 200));
        }
        let s = silo.backup_file(&file, VersionId(1), &mutated).unwrap();
        assert!(
            s.dedup_ratio() > 0.7,
            "locality should still find most: {}",
            s.dedup_ratio()
        );
    }

    #[test]
    fn block_fetches_counted() {
        let (_storage, mut silo, _cfg) = make_system();
        let file = FileId::new("f");
        let input = data(4, 60_000);
        silo.backup_file(&file, VersionId(0), &input).unwrap();
        // Fill the cache with unrelated content to force block eviction.
        for i in 0..40u64 {
            silo.backup_file(
                &FileId::new(format!("noise{i}")),
                VersionId(0),
                &data(100 + i, 20_000),
            )
            .unwrap();
        }
        let s = silo.backup_file(&file, VersionId(1), &input).unwrap();
        assert!(s.index_fetches > 0, "evicted blocks must be re-fetched");
        assert!(s.dedup_ratio() > 0.9);
    }
}
