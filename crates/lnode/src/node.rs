//! The L-node: a stateless online worker (§III-B).
//!
//! An [`LNode`] owns nothing but handles to the shared storage layer and
//! similar-file index — every job fetches what it needs during execution, so
//! nodes can be created and destroyed freely ("L-node does not save any
//! state, so it can be quickly deployed"). The computing layer of
//! [`slimstore`](https://crates.io/crates/slimstore) allocates as many as the
//! workload demands.

use std::sync::Arc;

use slim_chunking::{ChunkSpec, Chunker, FastCdcChunker, FixedChunker, GearChunker, RabinChunker};
use slim_index::{GlobalIndex, SimilarFileIndex};
use slim_telemetry::{Registry, Scope};
use slim_types::{FileId, Result, SlimConfig, VersionId};

use crate::backup::{BackupOutcome, BackupPipeline};
use crate::restore::{RestoreEngine, RestoreOptions};
use crate::stats::RestoreStats;
use crate::storage::StorageLayer;

/// Which chunking algorithm an L-node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkerKind {
    /// Rabin-fingerprint CDC (the slow classic).
    Rabin,
    /// Gear-hash CDC.
    Gear,
    /// FastCDC with normalized chunking (the default).
    #[default]
    FastCdc,
    /// Fixed-size chunking (boundary-shift baseline; weakest dedup).
    Fixed,
}

/// A stateless online processing node.
pub struct LNode {
    storage: StorageLayer,
    similar: SimilarFileIndex,
    config: SlimConfig,
    chunker: Arc<dyn Chunker>,
    telemetry: Scope,
}

impl LNode {
    /// Deploy an L-node over the shared storage layer and similar-file
    /// index, with the default FastCDC chunker.
    pub fn new(
        storage: StorageLayer,
        similar: SimilarFileIndex,
        config: SlimConfig,
    ) -> Result<Self> {
        Self::with_chunker(storage, similar, config, ChunkerKind::FastCdc)
    }

    /// Deploy with an explicit chunking algorithm.
    pub fn with_chunker(
        storage: StorageLayer,
        similar: SimilarFileIndex,
        config: SlimConfig,
        kind: ChunkerKind,
    ) -> Result<Self> {
        config.validate()?;
        let spec = ChunkSpec::from_config(&config);
        let chunker: Arc<dyn Chunker> = match kind {
            ChunkerKind::Rabin => Arc::new(RabinChunker::new(spec)),
            ChunkerKind::Gear => Arc::new(GearChunker::new(spec)),
            ChunkerKind::FastCdc => Arc::new(FastCdcChunker::new(spec)),
            ChunkerKind::Fixed => Arc::new(FixedChunker::new(config.avg_chunk_size)),
        };
        Ok(LNode {
            storage,
            similar,
            config,
            chunker,
            telemetry: Registry::new().scope("lnode"),
        })
    }

    /// Record into `scope` (canonically `lnode.<id>`) instead of the
    /// node's private registry: every job this node runs folds its phase
    /// timings into the scope's span histograms (`chunking`,
    /// `fingerprinting`, `index`, `container_io`, …) and its counters into
    /// the shared registry.
    pub fn with_telemetry(mut self, scope: Scope) -> Self {
        self.telemetry = scope;
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &SlimConfig {
        &self.config
    }

    /// Run a backup job for one file.
    pub fn backup_file(
        &self,
        file: &FileId,
        version: VersionId,
        data: &[u8],
    ) -> Result<BackupOutcome> {
        let outcome = BackupPipeline::new(
            &self.storage,
            &self.similar,
            self.chunker.as_ref(),
            &self.config,
        )
        .backup_file(file, version, data)?;
        outcome.stats.emit(&self.telemetry);
        Ok(outcome)
    }

    /// Run a restore job for one file with default options.
    pub fn restore_file(
        &self,
        file: &FileId,
        version: VersionId,
        global: Option<&GlobalIndex>,
    ) -> Result<(Vec<u8>, RestoreStats)> {
        self.restore_file_with(
            file,
            version,
            global,
            &RestoreOptions::from_config(&self.config),
        )
    }

    /// Run a restore job with explicit options.
    pub fn restore_file_with(
        &self,
        file: &FileId,
        version: VersionId,
        global: Option<&GlobalIndex>,
        options: &RestoreOptions,
    ) -> Result<(Vec<u8>, RestoreStats)> {
        let (data, stats) =
            RestoreEngine::new(&self.storage, global).restore_file(file, version, options)?;
        stats.emit(&self.telemetry);
        Ok((data, stats))
    }

    /// Run a restore job that streams the file into `sink` (constant output
    /// memory; the restore cache is the only buffer).
    pub fn restore_file_to(
        &self,
        file: &FileId,
        version: VersionId,
        global: Option<&GlobalIndex>,
        options: &RestoreOptions,
        sink: &mut dyn std::io::Write,
    ) -> Result<RestoreStats> {
        let stats = RestoreEngine::new(&self.storage, global)
            .restore_file_to(file, version, options, sink)?;
        stats.emit(&self.telemetry);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;

    fn make_node(kind: ChunkerKind) -> LNode {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        LNode::with_chunker(
            storage,
            SimilarFileIndex::new(),
            SlimConfig::small_for_tests(),
            kind,
        )
        .unwrap()
    }

    #[test]
    fn backup_restore_via_node_api() {
        for kind in [
            ChunkerKind::FastCdc,
            ChunkerKind::Rabin,
            ChunkerKind::Gear,
            ChunkerKind::Fixed,
        ] {
            let node = make_node(kind);
            let file = FileId::new("f");
            let input = data(1, 32_000);
            let out = node.backup_file(&file, VersionId(0), &input).unwrap();
            assert_eq!(out.info.logical_bytes, input.len() as u64);
            let (restored, _) = node.restore_file(&file, VersionId(0), None).unwrap();
            assert_eq!(restored, input, "{kind:?}");
        }
    }

    #[test]
    fn telemetry_scope_collects_job_phases() {
        let registry = slim_telemetry::Registry::new();
        let node =
            make_node(ChunkerKind::FastCdc).with_telemetry(registry.scope("lnode").child("0"));
        let file = FileId::new("f");
        let input = data(3, 32_000);
        node.backup_file(&file, VersionId(0), &input).unwrap();
        let (restored, _) = node.restore_file(&file, VersionId(0), None).unwrap();
        assert_eq!(restored, input);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lnode.0.backup_jobs"), 1);
        assert_eq!(snap.counter("lnode.0.logical_bytes"), input.len() as u64);
        assert_eq!(snap.counter("lnode.0.restored_bytes"), input.len() as u64);
        assert!(snap.counter("lnode.0.chunks") > 0);
        for phase in [
            "backup",
            "chunking",
            "fingerprinting",
            "index",
            "container_io",
            "restore",
        ] {
            let span = snap
                .span("lnode.0", phase)
                .unwrap_or_else(|| panic!("span {phase}"));
            assert_eq!(span.count, 1, "span {phase}");
        }
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let mut cfg = SlimConfig::small_for_tests();
        cfg.min_chunk_size = 0;
        assert!(LNode::new(storage, SimilarFileIndex::new(), cfg).is_err());
    }

    #[test]
    fn two_nodes_share_storage_state() {
        let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
        let similar = SimilarFileIndex::new();
        let cfg = SlimConfig::small_for_tests();
        let node_a = LNode::new(storage.clone(), similar.clone(), cfg.clone()).unwrap();
        let node_b = LNode::new(storage, similar, cfg).unwrap();
        let file = FileId::new("f");
        let input = data(2, 24_000);
        node_a.backup_file(&file, VersionId(0), &input).unwrap();
        // A different (freshly deployed) node dedups against A's version and
        // restores it — statelessness in action.
        let out = node_b.backup_file(&file, VersionId(1), &input).unwrap();
        assert!(out.stats.dedup_ratio() > 0.9);
        let (restored, _) = node_b.restore_file(&file, VersionId(0), None).unwrap();
        assert_eq!(restored, input);
    }
}
