//! Sparse container compaction (§V-B).
//!
//! After a backup version completes, containers whose utilization *for that
//! version* fell below the threshold (default 30 %) are compacted: the few
//! chunks the version still uses move into fresh, densely packed containers,
//! and the version's recipes are rewritten to point at them. Restores of the
//! current version then stop paying the read amplification of sparse
//! containers — the benefit applies immediately, not at the next backup like
//! HAR's rewriting.
//!
//! The moved chunks are marked deleted in their sparse source containers
//! (reclaiming old-version storage over time, Fig 9(b)), and the compacted
//! sparse containers are associated as garbage with the current version for
//! the Sweep phase of version collection (§VI-B).
//!
//! Crash safety: the compaction containers are written first, then a
//! [`crate::journal`] `RepointIndex` intent records every move, and only
//! then are the sparse copies marked deleted and the global index flipped.
//! A crash at any point either leaves unreferenced compaction containers
//! (reclaimed by the orphan scrub) or an intent that recovery replays, so a
//! durable deletion mark can never outlive the index flip to the new home.

use std::collections::{BTreeSet, HashMap, HashSet};

use slim_index::GlobalIndex;
use slim_lnode::StorageLayer;
use slim_types::{
    ContainerBuilder, ContainerId, FileId, Fingerprint, Recipe, RecipeIndex, Result, SlimConfig,
    VersionId,
};

use crate::journal::{Intent, Journal};
use crate::meta_cache::MetaCache;
use crate::reverse_dedup::{rewrite_containers, RelocationMap, ReverseDedupStats};

/// Outcome of one SCC pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SccStats {
    /// Containers identified as sparse for this version.
    pub sparse_containers: u64,
    /// Chunks moved into compaction containers.
    pub chunks_moved: u64,
    /// Bytes moved.
    pub bytes_moved: u64,
    /// Fresh containers created by compaction.
    pub containers_created: u64,
    /// Files whose recipes were rewritten.
    pub recipes_rewritten: u64,
}

/// Run sparse container compaction for `version`.
///
/// `files` are the files backed up in this version; `new_containers` the
/// containers the backup itself created (never considered sparse — they *are*
/// the current locality). Returns the stats, the list of compacted sparse
/// containers to associate with this version as garbage-on-delete, and the
/// containers the version's recipes name once rewritten — the recipes are in
/// hand here, so this is the one time they are read.
#[allow(clippy::too_many_arguments)]
pub fn compact_sparse_containers(
    storage: &StorageLayer,
    global: &GlobalIndex,
    meta_cache: &mut MetaCache,
    journal: &Journal,
    config: &SlimConfig,
    version: VersionId,
    files: &[FileId],
    new_containers: &[ContainerId],
    reverse_relocations: RelocationMap,
    rd_stats: &mut ReverseDedupStats,
) -> Result<(SccStats, Vec<ContainerId>, BTreeSet<ContainerId>)> {
    let mut stats = SccStats::default();
    let new_set: HashSet<ContainerId> = new_containers.iter().copied().collect();

    // Pass 1: utilization of every old container referenced by this version.
    let mut refs: HashMap<ContainerId, HashSet<Fingerprint>> = HashMap::new();
    let mut recipes: Vec<(FileId, Recipe)> = Vec::with_capacity(files.len());
    for file in files {
        let recipe = storage.get_recipe(file, version)?;
        for rec in recipe.records() {
            if !new_set.contains(&rec.container_id) {
                refs.entry(rec.container_id).or_default().insert(rec.fp);
            }
        }
        recipes.push((file.clone(), recipe));
    }

    // Records already relocated by reverse dedup also need their recipe
    // entries repointed (the current version must never pay a relocation
    // lookup); seed the rewrite map with them.
    let mut sparse: HashSet<ContainerId> = HashSet::new();
    for (&container, used) in &refs {
        if !storage.container_exists(container)? {
            continue; // already collected
        }
        let meta = meta_cache.get(container)?;
        let total = meta.total_chunks();
        if total == 0 {
            continue;
        }
        let utilization = used.len() as f64 / total as f64;
        if utilization < config.sparse_utilization_threshold {
            sparse.insert(container);
        }
    }
    stats.sparse_containers = sparse.len() as u64;

    // Pass 2: move the useful chunks of sparse containers into fresh
    // containers, remembering each chunk's new home. Deletion marks and
    // index flips are deferred to after the intent record below, so no mark
    // can become durable (e.g. via cache eviction) before the journal
    // promises the repoint.
    let mut relocated: HashMap<Fingerprint, ContainerId> = reverse_relocations;
    let mut moved: Vec<(ContainerId, Fingerprint, ContainerId)> = Vec::new();
    let mut builder: Option<ContainerBuilder> = None;
    let seal = |storage: &StorageLayer,
                builder: &mut Option<ContainerBuilder>,
                stats: &mut SccStats|
     -> Result<()> {
        if let Some(b) = builder.take() {
            if !b.is_empty() {
                let (data, meta) = b.seal();
                storage.put_container(data, &meta)?;
                stats.containers_created += 1;
            }
        }
        Ok(())
    };
    let mut sparse_sorted: Vec<ContainerId> = sparse.iter().copied().collect();
    sparse_sorted.sort();
    for &container in &sparse_sorted {
        let data = storage.get_container_data(container)?;
        let used = &refs[&container];
        let entries: Vec<_> = meta_cache
            .get(container)?
            .entries
            .iter()
            .filter(|e| !e.deleted && used.contains(&e.fp))
            .copied()
            .collect();
        for entry in entries {
            if relocated.contains_key(&entry.fp) {
                continue;
            }
            // Validated extraction + decompression; the compacted copy is
            // recompressed under the current knob. Capacity accounting (and
            // so compaction container boundaries and `bytes_moved`) is in
            // raw bytes, invariant under compression.
            let payload = entry.payload_from(&data)?;
            if builder
                .as_ref()
                .is_some_and(|b| b.would_overflow(payload.len()))
            {
                seal(storage, &mut builder, &mut stats)?;
            }
            let b = match &mut builder {
                Some(b) => b,
                None => {
                    let id = storage.allocate_container_id();
                    builder.insert(
                        ContainerBuilder::new(id, config.container_capacity)
                            .with_compression(config.compression),
                    )
                }
            };
            b.push(entry.fp, &payload);
            relocated.insert(entry.fp, b.id());
            moved.push((container, entry.fp, b.id()));
            stats.chunks_moved += 1;
            stats.bytes_moved += payload.len() as u64;
        }
    }
    seal(storage, &mut builder, &mut stats)?;

    // Every compaction container is durable; promise the index flips, then
    // delete the sparse copies and repoint the global index.
    let repoint_seq = if moved.is_empty() {
        None
    } else {
        Some(journal.record(&Intent::RepointIndex {
            entries: moved.iter().map(|&(_, fp, dest)| (fp, dest)).collect(),
        })?)
    };
    for &(source, fp, dest) in &moved {
        meta_cache.update(source, |m| m.mark_deleted(&fp))?;
        global.relocate(&fp, dest)?;
    }

    // Pass 3: rewrite the current version's recipes to the new layout.
    let mut referenced: BTreeSet<ContainerId> = BTreeSet::new();
    for (file, mut recipe) in recipes {
        let mut changed = false;
        for seg in &mut recipe.segments {
            for rec in &mut seg.records {
                if let Some(&new_home) = relocated.get(&rec.fp) {
                    if rec.container_id != new_home {
                        rec.container_id = new_home;
                        changed = true;
                    }
                }
                referenced.insert(rec.container_id);
            }
        }
        if !changed {
            continue;
        }
        let (buf, spans) = recipe.encode();
        let index = RecipeIndex::build(&recipe, &spans, config.sample_rate);
        storage
            .oss()
            .put(&slim_types::layout::recipe(&file, version), buf)?;
        storage.oss().put(
            &slim_types::layout::recipe_index(&file, version),
            index.encode(),
        )?;
        stats.recipes_rewritten += 1;
    }

    // Physically shrink the sparse containers we touched: one journaled
    // two-phase rewrite over all of them, which also makes the marks and
    // index flips above durable.
    rewrite_containers(
        storage,
        global,
        meta_cache,
        journal,
        config.compression,
        config.container_rewrite_threshold,
        &sparse_sorted,
        None,
        rd_stats,
    )?;
    if let Some(seq) = repoint_seq {
        journal.retire(seq)?;
    }
    Ok((stats, sparse_sorted, referenced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_chunking::{ChunkSpec, FastCdcChunker};
    use slim_index::SimilarFileIndex;
    use slim_lnode::backup::BackupPipeline;
    use slim_lnode::restore::{RestoreEngine, RestoreOptions};
    use slim_oss::rocks::RocksConfig;
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;
    use std::sync::Arc;

    struct Env {
        storage: StorageLayer,
        similar: SimilarFileIndex,
        global: GlobalIndex,
        journal: Journal,
        config: SlimConfig,
    }

    fn setup() -> Env {
        let oss = Oss::in_memory();
        let storage = StorageLayer::open(Arc::new(oss.clone()));
        let global =
            GlobalIndex::open_with(Arc::new(oss.clone()), RocksConfig::small_for_tests(), 4096)
                .unwrap();
        Env {
            storage,
            similar: SimilarFileIndex::new(),
            global,
            journal: Journal::open(Arc::new(oss)),
            config: SlimConfig::small_for_tests(),
        }
    }

    impl Env {
        fn backup(&self, file: &FileId, version: u64, bytes: &[u8]) -> Vec<ContainerId> {
            let chunker = FastCdcChunker::new(ChunkSpec::from_config(&self.config));
            BackupPipeline::new(&self.storage, &self.similar, &chunker, &self.config)
                .backup_file(file, VersionId(version), bytes)
                .unwrap()
                .new_containers
        }

        fn restore(&self, file: &FileId, version: u64) -> Vec<u8> {
            RestoreEngine::new(&self.storage, Some(&self.global))
                .restore_file(
                    file,
                    VersionId(version),
                    &RestoreOptions::from_config(&self.config),
                )
                .unwrap()
                .0
        }

        fn scc(
            &self,
            version: u64,
            files: &[FileId],
            new_containers: &[ContainerId],
        ) -> (SccStats, Vec<ContainerId>) {
            let mut cache = MetaCache::new(self.storage.clone(), 64);
            let mut rd = ReverseDedupStats::default();
            let (stats, sparse, _) = compact_sparse_containers(
                &self.storage,
                &self.global,
                &mut cache,
                &self.journal,
                &self.config,
                VersionId(version),
                files,
                new_containers,
                RelocationMap::new(),
                &mut rd,
            )
            .unwrap();
            assert!(
                self.journal.is_empty(),
                "a completed SCC pass must retire all of its intents"
            );
            (stats, sparse)
        }
    }

    /// Build a history where a later version uses only a sliver of the
    /// containers created by version 0 — those become sparse.
    fn build_sparse_history(env: &Env, file: &FileId) -> (Vec<Vec<u8>>, Vec<Vec<ContainerId>>) {
        let mut inputs = Vec::new();
        let mut containers = Vec::new();
        let mut cur = data(1, 64_000);
        for v in 0..6u64 {
            let ids = env.backup(file, v, &cur);
            inputs.push(cur.clone());
            containers.push(ids);
            // Replace most of the file each version, keeping a 1 000-byte
            // sliver of every 8 000 (a container's worth): whatever the byte
            // stream, each old container stays referenced by a few chunks.
            let fresh = data(100 + v, 64_000);
            cur = cur
                .chunks(8_000)
                .zip(fresh.chunks(8_000))
                .flat_map(|(old, new)| [&old[..1_000], &new[1_000..]].concat())
                .collect();
        }
        (inputs, containers)
    }

    #[test]
    fn scc_moves_chunks_and_keeps_restores_correct() {
        let env = setup();
        let file = FileId::new("f");
        let (inputs, containers) = build_sparse_history(&env, &file);
        let last = inputs.len() - 1;
        let (stats, garbage) = env.scc(last as u64, &[file.clone()], &containers[last]);
        assert!(
            stats.sparse_containers > 0,
            "history must create sparse containers"
        );
        assert!(stats.chunks_moved > 0);
        assert!(stats.recipes_rewritten >= 1);
        assert_eq!(garbage.len() as u64, stats.sparse_containers);
        // The compacted version restores byte-identically...
        assert_eq!(env.restore(&file, last as u64), inputs[last]);
        // ...and so do all older versions (moved chunks resolve through the
        // global index).
        for (v, expected) in inputs.iter().enumerate() {
            assert_eq!(&env.restore(&file, v as u64), expected, "version {v}");
        }
    }

    #[test]
    fn scc_reduces_containers_read_for_current_version() {
        let env = setup();
        let file = FileId::new("f");
        let (inputs, containers) = build_sparse_history(&env, &file);
        let last = inputs.len() - 1;
        let opts = RestoreOptions::from_config(&env.config).without_prefetch();
        let engine_reads = |env: &Env| {
            RestoreEngine::new(&env.storage, Some(&env.global))
                .restore_file(&file, VersionId(last as u64), &opts)
                .unwrap()
                .1
                .containers_read
        };
        let before = engine_reads(&env);
        env.scc(last as u64, &[file.clone()], &containers[last]);
        let after = engine_reads(&env);
        assert!(
            after < before,
            "SCC should reduce container reads: before={before} after={after}"
        );
    }

    /// Forwards to an [`Oss`], logging `(operation, container keys named)`
    /// for every read of container data and every container delete.
    struct Counting {
        inner: Oss,
        calls: std::sync::Mutex<Vec<(&'static str, usize)>>,
    }

    impl Counting {
        fn note<'a>(&self, op: &'static str, keys: impl Iterator<Item = &'a str>, suffix: &str) {
            let n = keys
                .filter(|k| k.starts_with(slim_types::layout::CONTAINER_PREFIX))
                .filter(|k| k.ends_with(suffix))
                .count();
            if n > 0 {
                self.calls.lock().unwrap().push((op, n));
            }
        }
    }

    impl slim_oss::ObjectStore for Counting {
        fn put(&self, key: &str, value: bytes::Bytes) -> Result<()> {
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> Result<bytes::Bytes> {
            self.note("get", [key].into_iter(), "/data");
            self.inner.get(key)
        }
        fn get_range(&self, key: &str, start: u64, len: u64) -> Result<bytes::Bytes> {
            self.inner.get_range(key, start, len)
        }
        fn delete(&self, key: &str) -> Result<()> {
            self.note("delete", [key].into_iter(), "");
            self.inner.delete(key)
        }
        fn exists(&self, key: &str) -> Result<bool> {
            self.inner.exists(key)
        }
        fn len(&self, key: &str) -> Result<Option<u64>> {
            self.inner.len(key)
        }
        fn get_many(&self, keys: &[String]) -> Vec<Result<bytes::Bytes>> {
            self.note("get_many", keys.iter().map(|k| k.as_str()), "/data");
            self.inner.get_many(keys)
        }
        fn delete_many(&self, keys: &[String]) -> Vec<Result<()>> {
            self.note("delete_many", keys.iter().map(|k| k.as_str()), "");
            self.inner.delete_many(keys)
        }
        fn list(&self, prefix: &str) -> Vec<String> {
            self.inner.list(prefix)
        }
    }

    #[test]
    fn sparse_containers_are_rewritten_as_one_batch() {
        let store = Arc::new(Counting {
            inner: Oss::in_memory(),
            calls: Default::default(),
        });
        let storage = StorageLayer::open(store.clone());
        let global =
            GlobalIndex::open_with(store.clone(), RocksConfig::small_for_tests(), 4096).unwrap();
        let journal = Journal::open(store.clone());
        let config = SlimConfig::small_for_tests();
        let fp = |b: u8| Fingerprint::from_slice(&[b; 20]).unwrap();

        // Three old containers of eight chunks; the version uses two of
        // each: utilization 0.25 < 0.30 makes them sparse, and moving the
        // two out leaves 0.25 > 0.20 deleted, so each is rewritten.
        let file = FileId::new("f");
        let mut records = Vec::new();
        let mut expected = Vec::new();
        for c in 0..3u8 {
            let id = storage.allocate_container_id();
            let mut b = ContainerBuilder::new(id, 1 << 20);
            for k in 0..8u8 {
                let tag = c * 8 + k;
                b.push(fp(tag), &[tag; 100]);
                global.insert(&fp(tag), id).unwrap();
                if k < 2 {
                    records.push(slim_types::ChunkRecord::new(fp(tag), id, 100, 0));
                    expected.extend_from_slice(&[tag; 100]);
                }
            }
            let (data, meta) = b.seal();
            storage.put_container(data, &meta).unwrap();
        }
        let recipe = Recipe {
            segments: vec![slim_types::SegmentRecipe::new(records)],
        };
        let (_, spans) = recipe.encode();
        let index = RecipeIndex::build(&recipe, &spans, config.sample_rate);
        storage
            .put_recipe(&file, VersionId(1), &recipe, &index)
            .unwrap();

        let mut cache = MetaCache::new(storage.clone(), 64);
        let mut rd = ReverseDedupStats::default();
        store.calls.lock().unwrap().clear();
        let (stats, garbage, _) = compact_sparse_containers(
            &storage,
            &global,
            &mut cache,
            &journal,
            &config,
            VersionId(1),
            std::slice::from_ref(&file),
            &[],
            RelocationMap::new(),
            &mut rd,
        )
        .unwrap();
        assert_eq!(stats.sparse_containers, 3);
        assert_eq!(garbage.len(), 3);
        assert_eq!(rd.containers_rewritten, 3);
        assert!(journal.is_empty());

        let calls = store.calls.lock().unwrap().clone();
        let of = |op: &str| -> Vec<usize> {
            calls
                .iter()
                .filter(|(o, _)| *o == op)
                .map(|(_, n)| *n)
                .collect()
        };
        assert_eq!(of("get_many"), vec![3], "one batched read of the three");
        assert_eq!(
            of("delete_many"),
            vec![6],
            "one batched delete, data + meta"
        );
        assert_eq!(of("delete"), Vec::<usize>::new(), "no per-container delete");

        let restored = RestoreEngine::new(&storage, Some(&global))
            .restore_file(&file, VersionId(1), &RestoreOptions::from_config(&config))
            .unwrap()
            .0;
        assert_eq!(restored, expected);
    }

    #[test]
    fn scc_noop_when_nothing_sparse() {
        let env = setup();
        let file = FileId::new("f");
        let input = data(42, 30_000);
        let ids = env.backup(&file, 0, &input);
        let (stats, garbage) = env.scc(0, &[file.clone()], &ids);
        assert_eq!(stats.sparse_containers, 0);
        assert!(garbage.is_empty());
        assert_eq!(env.restore(&file, 0), input);
    }

    #[test]
    fn moved_chunks_update_global_index() {
        let env = setup();
        let file = FileId::new("f");
        let (inputs, containers) = build_sparse_history(&env, &file);
        let last = inputs.len() - 1;
        env.scc(last as u64, &[file.clone()], &containers[last]);
        // Every record of the rewritten recipe resolves through its stated
        // container (no dangling pointers).
        let recipe = env
            .storage
            .get_recipe(&file, VersionId(last as u64))
            .unwrap();
        for rec in recipe.records() {
            let meta = env.storage.get_container_meta(rec.container_id).unwrap();
            assert!(
                meta.find_live(&rec.fp).is_some(),
                "record {} points at {} which lacks a live copy",
                rec.fp.short_hex(),
                rec.container_id
            );
        }
    }
}
