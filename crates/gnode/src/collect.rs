//! Version collection (§VI-B).
//!
//! The Mark phase is folded into deduplication time: after version N+1 is
//! backed up, the containers referenced by version N but not by N+1 are
//! recorded in N's manifest as `garbage_on_delete` (they are invisible to
//! every subsequent version, which dedups against N+1). Sparse containers
//! compacted while backing up N are recorded the same way by
//! [`crate::scc`]. Deleting a version is then a pure Sweep: drop the
//! associated garbage containers, the version's recipes and its manifest.
//!
//! Deletion is FIFO (oldest version first) — the retention-window model of
//! the paper ("only preserve the last 10 versions") — which is what makes
//! the marking sound: when version N is swept, every version ≤ N is already
//! gone, and no version > N references N's garbage.

use std::collections::{BTreeSet, HashSet};

use slim_index::{GlobalIndex, SimilarFileIndex};
use slim_lnode::StorageLayer;
use slim_types::{layout, ContainerId, Result, SlimError, VersionId};

use crate::fanin::{ensure_referenced, recipe_containers};
use crate::journal::{Intent, Journal};

/// Outcome of sweeping one version.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Garbage containers deleted.
    pub containers_deleted: u64,
    /// Bytes reclaimed (container data + metadata).
    pub bytes_reclaimed: u64,
    /// Recipe objects deleted.
    pub recipes_deleted: u64,
}

/// Mark phase: record in version `n`'s manifest the containers it names
/// that the next version — whose referenced set is `next_refs`, fresh from
/// its settle — no longer does. `n`'s own set comes from its manifest (its
/// recipes were read when *it* was the new version). Call after the next
/// version is settled.
pub fn mark_unreferenced(
    storage: &StorageLayer,
    n: VersionId,
    next_refs: &BTreeSet<ContainerId>,
) -> Result<u64> {
    let mut manifest = storage.get_manifest(n)?;
    let derived = ensure_referenced(storage, &mut manifest)?;
    let already: HashSet<ContainerId> = manifest.garbage_on_delete.iter().copied().collect();
    // The set is ascending, so the manifest's bytes are a function of the
    // history, not of this process's hash seed.
    let unreferenced: Vec<ContainerId> = manifest
        .referenced_containers
        .iter()
        .filter(|c| !next_refs.contains(c) && !already.contains(c))
        .copied()
        .collect();
    let marked = unreferenced.len() as u64;
    if marked > 0 || derived {
        manifest.garbage_on_delete.extend(unreferenced);
        storage.put_manifest(&manifest)?;
    }
    Ok(marked)
}

/// Sweep phase: delete version `v` — its garbage containers, recipes,
/// manifest, and (for files whose last version this was) similar-index
/// registrations. Enforces FIFO deletion: `v` must be the oldest stored
/// version.
///
/// Crash safety: the index removals are flushed *before* any container is
/// deleted (a durable index must never point at a deleted object), and the
/// deletes themselves ride behind a journal `DropContainers` intent so a
/// killed sweep re-deletes on recovery. A crash mid-sweep can leave `v`'s
/// recipes/manifest behind with its containers already gone; re-running the
/// sweep converges (missing containers are skipped).
pub fn collect_version(
    storage: &StorageLayer,
    global: &GlobalIndex,
    similar: &SimilarFileIndex,
    journal: &Journal,
    v: VersionId,
) -> Result<CollectStats> {
    let versions = storage.list_versions();
    match versions.first() {
        Some(&oldest) if oldest == v => {}
        Some(&oldest) => {
            return Err(SlimError::InvalidConfig(format!(
                "version collection is FIFO: cannot delete {v} while {oldest} exists"
            )));
        }
        None => return Err(SlimError::VersionNotFound(v.0)),
    }
    let manifest = storage.get_manifest(v)?;
    let mut stats = CollectStats::default();

    // One batched sweep reads every garbage container's metadata; a second
    // batched sweep deletes the doomed objects. Already-reclaimed containers
    // (e.g. emptied by reverse dedup) surface as `ContainerMissing` and are
    // skipped.
    let garbage = &manifest.garbage_on_delete;
    let mut doomed: Vec<ContainerId> = Vec::new();
    for (&container, meta) in garbage.iter().zip(storage.get_container_meta_many(garbage)) {
        let meta = match meta {
            Ok(meta) => meta,
            Err(SlimError::ContainerMissing(_)) => continue,
            Err(other) => return Err(other),
        };
        // Unindex fingerprints whose authoritative copy dies with this
        // container.
        for entry in &meta.entries {
            if global.get(&entry.fp)? == Some(container) {
                global.remove(&entry.fp)?;
            }
        }
        stats.bytes_reclaimed += meta.data_len as u64 + meta.encode().len() as u64;
        doomed.push(container);
    }
    // Make the removals durable before anything disappears, then promise the
    // deletes so a killed sweep finishes them on recovery.
    global.flush()?;
    let seq = if doomed.is_empty() {
        None
    } else {
        Some(journal.record(&Intent::DropContainers {
            ids: doomed.clone(),
        })?)
    };
    storage.delete_containers(&doomed)?;
    stats.containers_deleted += doomed.len() as u64;

    for file in &manifest.files {
        storage.delete_recipe(&file.file, v)?;
        stats.recipes_deleted += 1;
        // If no newer version of this file exists, forget it entirely.
        if similar.latest_version(&file.file) == Some(v) {
            similar.remove(&file.file);
        }
    }
    storage.delete_manifest(v)?;
    if let Some(seq) = seq {
        journal.retire(seq)?;
    }
    Ok(stats)
}

/// Outcome of one orphan-scrub pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrphanScrubStats {
    /// Container/recipe keys examined.
    pub keys_scanned: u64,
    /// Container objects (data or meta) deleted as unreachable.
    pub container_objects_reclaimed: u64,
    /// Recipe and recipe-index objects deleted as unreachable.
    pub recipe_objects_reclaimed: u64,
    /// Total bytes reclaimed.
    pub bytes_reclaimed: u64,
}

impl OrphanScrubStats {
    /// Total objects deleted by the pass.
    pub fn objects_reclaimed(&self) -> u64 {
        self.container_objects_reclaimed + self.recipe_objects_reclaimed
    }
}

/// Reclaim every container/recipe key not reachable from a committed version
/// manifest — the cleanup half of the backup commit protocol.
///
/// A backup job writes containers and recipes first and commits by PUTting
/// the version manifest last; a job that dies before the commit point leaves
/// orphan keys behind. This pass computes the reachable set and deletes the
/// rest:
///
/// * **containers** are reachable if any committed manifest lists them
///   (`new_containers` or `garbage_on_delete`), any committed recipe
///   references them, or — when `global` is given — the global fingerprint
///   index still points a chunk at them (SCC output containers are created
///   by the G-node mid-cycle and reachable through rewritten recipes and the
///   index before any manifest lists them).
/// * **recipes / recipe-indexes** are reachable if their version has a
///   committed manifest.
///
/// Invariants: must run with no backup in flight (the G-node is offline by
/// design, §III-A) and, when a global index exists, it must be passed in.
/// The pass is idempotent — a second run reclaims nothing.
pub fn scrub_orphans(
    storage: &StorageLayer,
    global: Option<&GlobalIndex>,
) -> Result<OrphanScrubStats> {
    let mut live_versions: HashSet<VersionId> = HashSet::new();
    let mut reachable: HashSet<ContainerId> = HashSet::new();
    for v in storage.list_versions() {
        live_versions.insert(v);
        let manifest = storage.get_manifest(v)?;
        reachable.extend(manifest.new_containers.iter().copied());
        reachable.extend(manifest.garbage_on_delete.iter().copied());
        reachable.extend(recipe_containers(storage, &manifest)?);
    }
    if let Some(global) = global {
        reachable.extend(global.referenced_containers()?);
    }

    let oss = storage.oss();
    let mut stats = OrphanScrubStats::default();
    // Reclaim a doomed key set in two batched sweeps: size everything (the
    // reclaimed-bytes figure), then delete everything. Errors propagate —
    // an under-counted scrub would misreport what the protocol leaked.
    let reclaim = |doomed: &[String], stats: &mut OrphanScrubStats| -> Result<()> {
        for result in oss.len_many(doomed) {
            stats.bytes_reclaimed += result?.unwrap_or(0);
        }
        for result in oss.delete_many(doomed) {
            result?;
        }
        Ok(())
    };
    // List raw container keys rather than metas: a job killed between the
    // data PUT and the meta PUT leaves a data object with no meta.
    let mut doomed: Vec<String> = Vec::new();
    for key in oss.list(layout::CONTAINER_PREFIX) {
        stats.keys_scanned += 1;
        let Some(id) = layout::parse_container_key(&key) else {
            continue; // unknown layout: never delete what we can't attribute
        };
        if !reachable.contains(&id) {
            doomed.push(key);
        }
    }
    reclaim(&doomed, &mut stats)?;
    stats.container_objects_reclaimed += doomed.len() as u64;
    let mut doomed: Vec<String> = Vec::new();
    for prefix in [layout::RECIPE_PREFIX, layout::RECIPE_INDEX_PREFIX] {
        for key in oss.list(prefix) {
            stats.keys_scanned += 1;
            let Some(v) = layout::parse_recipe_version(&key) else {
                continue;
            };
            if !live_versions.contains(&v) {
                doomed.push(key);
            }
        }
    }
    reclaim(&doomed, &mut stats)?;
    stats.recipe_objects_reclaimed += doomed.len() as u64;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_chunking::{ChunkSpec, FastCdcChunker};
    use slim_lnode::backup::BackupPipeline;
    use slim_lnode::restore::{RestoreEngine, RestoreOptions};
    use slim_oss::rocks::RocksConfig;
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;
    use slim_types::{FileId, SlimConfig, VersionManifest};
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

    fn collect(env: &Env, v: u64) -> Result<CollectStats> {
        let out = collect_version(
            &env.storage,
            &env.global,
            &env.similar,
            &env.journal,
            VersionId(v),
        );
        if out.is_ok() {
            assert!(
                env.journal.is_empty(),
                "a completed sweep must retire its intents"
            );
        }
        out
    }

    impl Env {
        fn backup_version(&self, version: u64, files: &[(&FileId, &[u8])]) {
            let chunker = FastCdcChunker::new(ChunkSpec::from_config(&self.config));
            let pipeline =
                BackupPipeline::new(&self.storage, &self.similar, &chunker, &self.config);
            let mut manifest = VersionManifest::new(VersionId(version));
            for (file, bytes) in files {
                let out = pipeline
                    .backup_file(file, VersionId(version), bytes)
                    .unwrap();
                manifest.files.push(out.info);
                manifest.new_containers.extend(out.new_containers);
            }
            self.storage.put_manifest(&manifest).unwrap();
        }

        /// Mark version `n` against what version `next`'s recipes name.
        fn mark(&self, n: u64, next: u64) -> u64 {
            let next = self.storage.get_manifest(VersionId(next)).unwrap();
            let next_refs = recipe_containers(&self.storage, &next).unwrap();
            mark_unreferenced(&self.storage, VersionId(n), &next_refs).unwrap()
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
    }

    #[test]
    fn mark_identifies_dropped_containers() {
        let file = FileId::new("f");
        let marked_history = || {
            let env = setup();
            let v0 = data(1, 120_000);
            env.backup_version(0, &[(&file, &v0)]);
            // v1 rewrites the file completely: v0's containers become
            // invisible.
            let v1 = data(2, 120_000);
            env.backup_version(1, &[(&file, &v1)]);
            let marked = env.mark(0, 1);
            (env, marked)
        };
        let (env, marked) = marked_history();
        assert!(
            marked > 8,
            "fully-rewritten file must orphan its containers"
        );
        let manifest = env.storage.get_manifest(VersionId(0)).unwrap();
        assert_eq!(manifest.garbage_on_delete.len() as u64, marked);
        // Marking again adds nothing (idempotent).
        assert_eq!(env.mark(0, 1), 0);
        // The same history writes the same manifest bytes, run after run.
        let (twin, _) = marked_history();
        let key = layout::version_manifest(VersionId(0));
        assert_eq!(
            env.storage.oss().get(&key).unwrap(),
            twin.storage.oss().get(&key).unwrap()
        );
    }

    #[test]
    fn mark_keeps_shared_containers() {
        let env = setup();
        let file = FileId::new("f");
        let v0 = data(3, 40_000);
        env.backup_version(0, &[(&file, &v0)]);
        env.backup_version(1, &[(&file, &v0)]); // identical: everything shared
        assert_eq!(env.mark(0, 1), 0, "shared containers must not be marked");
    }

    #[test]
    fn sweep_reclaims_space_and_preserves_survivors() {
        let env = setup();
        let file = FileId::new("f");
        let v0 = data(4, 40_000);
        let v1 = data(5, 40_000);
        env.backup_version(0, &[(&file, &v0)]);
        env.backup_version(1, &[(&file, &v1)]);
        env.mark(0, 1);
        let before = env.storage.container_store_bytes().unwrap();
        let stats = collect(&env, 0).unwrap();
        assert!(stats.containers_deleted > 0);
        assert!(stats.recipes_deleted >= 1);
        let after = env.storage.container_store_bytes().unwrap();
        assert!(
            after < before,
            "sweep must reclaim bytes: {before} -> {after}"
        );
        // v1 still restores; v0 is gone.
        assert_eq!(env.restore(&file, 1), v1);
        assert!(env.storage.get_recipe(&file, VersionId(0)).is_err());
        assert!(matches!(
            env.storage.get_manifest(VersionId(0)),
            Err(SlimError::VersionNotFound(0))
        ));
    }

    #[test]
    fn fifo_order_enforced() {
        let env = setup();
        let file = FileId::new("f");
        env.backup_version(0, &[(&file, &data(6, 10_000))]);
        env.backup_version(1, &[(&file, &data(7, 10_000))]);
        let err = collect(&env, 1).unwrap_err();
        assert!(matches!(err, SlimError::InvalidConfig(_)));
        assert!(matches!(collect(&env, 9), Err(SlimError::InvalidConfig(_))));
    }

    #[test]
    fn last_version_of_file_clears_similar_index() {
        let env = setup();
        let file = FileId::new("only");
        env.backup_version(0, &[(&file, &data(8, 20_000))]);
        assert_eq!(env.similar.latest_version(&file), Some(VersionId(0)));
        collect(&env, 0).unwrap();
        assert_eq!(env.similar.latest_version(&file), None);
    }

    #[test]
    fn collect_missing_version_errors() {
        let env = setup();
        assert!(matches!(
            collect(&env, 0),
            Err(SlimError::VersionNotFound(0))
        ));
    }

    #[test]
    fn scrub_preserves_committed_state() {
        let env = setup();
        let file = FileId::new("f");
        let v0 = data(20, 40_000);
        env.backup_version(0, &[(&file, &v0)]);
        let stats = scrub_orphans(&env.storage, Some(&env.global)).unwrap();
        assert_eq!(stats.objects_reclaimed(), 0, "{stats:?}");
        assert_eq!(stats.bytes_reclaimed, 0);
        assert!(stats.keys_scanned > 0);
        assert_eq!(env.restore(&file, 0), v0);
    }

    #[test]
    fn scrub_reclaims_uncommitted_keys() {
        use bytes::Bytes;
        let env = setup();
        let file = FileId::new("f");
        let v0 = data(21, 40_000);
        env.backup_version(0, &[(&file, &v0)]);
        let oss = env.storage.oss();
        // Simulate a job killed mid-backup of version 1: a dangling container
        // data object (no meta — died between the two PUTs), a full dangling
        // container, and recipe/recipe-index objects with no manifest.
        oss.put("containers/000000000090/data", Bytes::from(vec![1u8; 64]))
            .unwrap();
        oss.put("containers/000000000091/data", Bytes::from(vec![2u8; 64]))
            .unwrap();
        oss.put("containers/000000000091/meta", Bytes::from(vec![3u8; 16]))
            .unwrap();
        oss.put("recipes/f/00000001", Bytes::from(vec![4u8; 32]))
            .unwrap();
        oss.put("recipe-index/f/00000001", Bytes::from(vec![5u8; 8]))
            .unwrap();
        let stats = scrub_orphans(&env.storage, Some(&env.global)).unwrap();
        assert_eq!(stats.container_objects_reclaimed, 3);
        assert_eq!(stats.recipe_objects_reclaimed, 2);
        assert_eq!(stats.bytes_reclaimed, 64 + 64 + 16 + 32 + 8);
        assert!(!oss.exists("containers/000000000090/data").unwrap());
        assert!(!oss.exists("recipes/f/00000001").unwrap());
        // Committed state untouched; a second pass converges to zero.
        assert_eq!(env.restore(&file, 0), v0);
        let again = scrub_orphans(&env.storage, Some(&env.global)).unwrap();
        assert_eq!(again.objects_reclaimed(), 0);
    }
}
