//! LBW — sliding Look-Back Window rewriting (Cao et al., FAST'19).
//!
//! Another rewriting family the paper cites (§II): instead of HAR's
//! whole-backup utilization history or Capping's hard per-segment cap, LBW
//! defers each duplicate's keep-or-rewrite decision until the write frontier
//! is a full window past it. At that point the window holds the chunk's
//! *local context*: if its container serves fewer than the threshold number
//! of chunks in that context, referencing it would drag a locally-sparse
//! container into the restore — so the chunk is rewritten instead.
//!
//! Identification uses an exact in-memory index like the original paper's
//! testbed.

use std::collections::HashMap;
use std::time::Instant;

use slim_chunking::{chunk_all, Chunker};
use slim_lnode::StorageLayer;
use slim_types::{ChunkRecord, FileId, Fingerprint, Result, SlimConfig, VersionId};

use crate::common::{persist_recipe, ContainerWriter};
use crate::stats::BaselineBackupStats;

/// The LBW deduplication system.
pub struct LbwSystem {
    storage: StorageLayer,
    config: SlimConfig,
    chunker: Box<dyn Chunker>,
    /// Exact fingerprint index: fp → authoritative record.
    index: HashMap<Fingerprint, ChunkRecord>,
    /// Look-back window length in chunks.
    window: usize,
    /// Rewrite a duplicate whose container serves fewer than this many of
    /// the window's chunks.
    min_refs_in_window: usize,
    /// Chunks rewritten over this instance's lifetime.
    pub rewritten_chunks: u64,
}

impl LbwSystem {
    /// LBW with the given window length (chunks) and rewrite threshold.
    pub fn new(
        storage: StorageLayer,
        config: SlimConfig,
        chunker: Box<dyn Chunker>,
        window: usize,
        min_refs_in_window: usize,
    ) -> Self {
        LbwSystem {
            storage,
            config,
            chunker,
            index: HashMap::new(),
            window: window.max(1),
            min_refs_in_window: min_refs_in_window.max(1),
            rewritten_chunks: 0,
        }
    }

    /// Entries in the exact in-memory fingerprint index.
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
        // Tentative records: uniques are final immediately (the stream needs
        // them indexed for intra-version duplicates); duplicates are decided
        // once the frontier is `window` records past them.
        struct Slot {
            start: usize,
            end: usize,
            rec: ChunkRecord,
            deferred: bool,
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(chunks.len());
        let mut finalized = 0usize; // everything before this is decided

        // Decide slots whose context window is complete (or at stream end).
        macro_rules! finalize_up_to {
            ($limit:expr, $self_:ident, $writer:ident, $stats:ident) => {{
                while finalized < $limit {
                    let lo = finalized.saturating_sub($self_.window / 2);
                    let hi = (finalized + $self_.window).min(slots.len());
                    if slots[finalized].deferred {
                        let target = slots[finalized].rec.container_id;
                        let support = slots[lo..hi]
                            .iter()
                            .filter(|s| s.rec.container_id == target)
                            .count();
                        if support < $self_.min_refs_in_window {
                            let (start, end) = (slots[finalized].start, slots[finalized].end);
                            let fp = slots[finalized].rec.fp;
                            let container = $writer.push(fp, &data[start..end])?;
                            $self_.rewritten_chunks += 1;
                            $stats.duplicates -= 1;
                            let rec = ChunkRecord::new(fp, container, (end - start) as u32, 0);
                            $self_.index.insert(fp, rec);
                            slots[finalized].rec = rec;
                        }
                    }
                    finalized += 1;
                }
            }};
        }

        for chunk in &chunks {
            stats.chunks += 1;
            let (rec, deferred) = match self.index.get(&chunk.fp).copied() {
                Some(hit) => {
                    stats.duplicates += 1;
                    (
                        ChunkRecord::new(chunk.fp, hit.container_id, hit.size, 0),
                        true,
                    )
                }
                None => {
                    let container = writer.push(chunk.fp, chunk.slice(data))?;
                    let rec = ChunkRecord::new(chunk.fp, container, chunk.len() as u32, 0);
                    self.index.insert(chunk.fp, rec);
                    (rec, false)
                }
            };
            slots.push(Slot {
                start: chunk.start,
                end: chunk.end,
                rec,
                deferred,
            });
            if slots.len() > finalized + self.window {
                finalize_up_to!(slots.len() - self.window, self, writer, stats);
            }
        }
        finalize_up_to!(slots.len(), self, writer, stats);
        let records: Vec<ChunkRecord> = slots.into_iter().map(|s| s.rec).collect();
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

    fn make_system(window: usize, min_refs: usize) -> (StorageLayer, LbwSystem, SlimConfig) {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let config = SlimConfig::small_for_tests();
        let chunker = Box::new(FastCdcChunker::new(ChunkSpec::from_config(&config)));
        (
            storage.clone(),
            LbwSystem::new(storage, config.clone(), chunker, window, min_refs),
            config,
        )
    }

    /// Versions that keep shrinking slivers of many old containers.
    fn fragmented_versions() -> Vec<Vec<u8>> {
        let mut versions = vec![data(1, 48_000)];
        for v in 1..6u64 {
            let prev = versions.last().unwrap().clone();
            let mut next = Vec::new();
            for i in 0..8usize {
                next.extend_from_slice(&prev[i * 6_000..i * 6_000 + 2_000]);
                next.extend_from_slice(&data(100 * v + i as u64, 4_000));
            }
            versions.push(next);
        }
        versions
    }

    #[test]
    fn roundtrip_and_rewrites_happen() {
        let (storage, mut lbw, cfg) = make_system(32, 3);
        let file = FileId::new("f");
        let versions = fragmented_versions();
        for (v, bytes) in versions.iter().enumerate() {
            lbw.backup_file(&file, VersionId(v as u64), bytes).unwrap();
        }
        assert!(
            lbw.rewritten_chunks > 0,
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
    fn identical_versions_dedup_fully_after_first() {
        let (_s, mut lbw, _c) = make_system(32, 3);
        let file = FileId::new("f");
        let input = data(9, 40_000);
        lbw.backup_file(&file, VersionId(0), &input).unwrap();
        let s = lbw.backup_file(&file, VersionId(1), &input).unwrap();
        // A clean sequential re-read keeps every container warm in the
        // window: no rewriting, near-exact dedup.
        assert!(s.dedup_ratio() > 0.95, "ratio {}", s.dedup_ratio());
    }

    #[test]
    fn stricter_threshold_rewrites_more() {
        let file = FileId::new("f");
        let versions = fragmented_versions();
        let run = |min_refs: usize| {
            let (_, mut sys, _) = make_system(32, min_refs);
            for (v, bytes) in versions.iter().enumerate() {
                sys.backup_file(&file, VersionId(v as u64), bytes).unwrap();
            }
            sys.rewritten_chunks
        };
        assert!(
            run(8) >= run(2),
            "higher support requirement must rewrite at least as much"
        );
    }
}
