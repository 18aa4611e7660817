//! The G-node: the offline space manager (§III-B, §VI).
//!
//! One G-node serves a deployment. After every backup version the computing
//! layer hands it the version's manifest and it runs its cycle:
//!
//! 1. **reverse deduplication** over the version's new containers;
//! 2. **sparse container compaction** for the version's files;
//! 3. **garbage marking** of the previous version (Mark phase of §VI-B).
//!
//! All of it is offline: the online dedup/restore path never waits on the
//! G-node, and the recipes of the latest version are only improved (SCC
//! rewrites them to a denser layout), never invalidated.
//!
//! The maintenance plane is crash-safe: every destructive stage journals an
//! idempotent intent first (see [`crate::journal`]), and [`GNode::recover`]
//! — run on every startup — replays outstanding intents, quarantines
//! corrupted maintenance outputs, and re-derives lost global-index entries
//! from container metadata.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use slim_index::{GlobalIndex, SimilarFileIndex};
use slim_lnode::StorageLayer;
use slim_telemetry::{Registry, Scope};
use slim_types::{layout, ContainerId, Result, SlimConfig, SlimError, VersionId};

use crate::collect::{
    collect_version, mark_unreferenced, scrub_orphans, CollectStats, OrphanScrubStats,
};
use crate::fanin::{recipe_containers, settle_version};
use crate::journal::{Intent, Journal};
use crate::meta_cache::MetaCache;
use crate::redundancy::{PurgeReport, RedundancyStats, RepairReport};
use crate::reverse_dedup::{reverse_dedup, rewrite_containers, ReverseDedupStats};
use crate::scc::{compact_sparse_containers, SccStats};

/// Combined statistics of one G-node cycle.
#[derive(Debug, Clone, Default)]
pub struct GNodeCycleStats {
    /// Reverse-deduplication outcome.
    pub reverse: ReverseDedupStats,
    /// Sparse-container-compaction outcome.
    pub scc: SccStats,
    /// Containers newly marked garbage for the previous version.
    pub marked_garbage: u64,
    /// Quarantine-repair outcome (when redundancy is enabled).
    pub repair: RepairReport,
    /// Redundancy re-tier outcome (when redundancy is enabled).
    pub redundancy: RedundancyStats,
}

impl GNodeCycleStats {
    /// Fold this cycle's counters into a telemetry scope (canonically
    /// `gnode`). Phase *timings* are recorded by the cycle's spans; this
    /// covers the work counters.
    pub fn emit(&self, scope: &Scope) {
        scope.counter("cycles").inc();
        scope
            .counter("chunks_scanned")
            .add(self.reverse.chunks_scanned);
        scope.counter("bloom_skips").add(self.reverse.bloom_skips);
        scope
            .counter("duplicates_removed")
            .add(self.reverse.duplicates_removed);
        scope.counter("bytes_marked").add(self.reverse.bytes_marked);
        scope
            .counter("containers_rewritten")
            .add(self.reverse.containers_rewritten);
        scope
            .counter("containers_deleted")
            .add(self.reverse.containers_deleted);
        scope
            .counter("bytes_reclaimed")
            .add(self.reverse.bytes_reclaimed);
        scope
            .counter("sparse_containers")
            .add(self.scc.sparse_containers);
        scope.counter("chunks_moved").add(self.scc.chunks_moved);
        scope.counter("bytes_moved").add(self.scc.bytes_moved);
        scope
            .counter("containers_created")
            .add(self.scc.containers_created);
        scope
            .counter("recipes_rewritten")
            .add(self.scc.recipes_rewritten);
        scope.counter("marked_garbage").add(self.marked_garbage);
        scope
            .counter("repair.containers_repaired")
            .add(self.repair.containers_repaired);
        scope
            .counter("repair.containers_unrepairable")
            .add(self.repair.containers_unrepairable);
        scope
            .counter("repair.objects_rewritten")
            .add(self.repair.objects_rewritten);
        scope
            .counter("repair.index_entries_restored")
            .add(self.repair.index_entries_restored);
        self.redundancy.emit(scope);
    }
}

/// What [`GNode::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Outstanding journal intents replayed (then retired).
    pub intents_replayed: u64,
    /// Two-phase rewrites completed forward (new copy intact).
    pub rewrites_rolled_forward: u64,
    /// Two-phase rewrites undone (new copy missing or corrupt).
    pub rewrites_rolled_back: u64,
    /// Journal records that failed their own CRC and were quarantined.
    pub journal_records_quarantined: u64,
    /// Container data/meta objects moved under the quarantine prefix.
    pub objects_quarantined: u64,
    /// Global-index SSTable objects quarantined as corrupt.
    pub index_tables_quarantined: u64,
    /// Unreferenced global-index SSTable objects retired.
    pub index_tables_retired: u64,
    /// Fingerprint entries re-derived from container metadata after an
    /// index run was dropped.
    pub index_entries_rederived: u64,
}

impl RecoveryReport {
    /// True when recovery found nothing to repair.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryReport::default()
    }
}

/// What [`GNode::verify_checksums`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Containers whose data and metadata objects were CRC-verified.
    pub containers_checked: u64,
    /// Containers that failed verification and were quarantined.
    pub containers_quarantined: u64,
    /// Individual objects moved under the quarantine prefix.
    pub objects_quarantined: u64,
    /// Global-index entries removed because they pointed at quarantined
    /// containers (an honest miss beats a dangling pointer).
    pub index_entries_removed: u64,
    /// Protection copies — replicas and parity blocks — that failed their
    /// CRC and were dropped (journaled); the next re-tier rewrites them from
    /// the verified primaries.
    pub replicas_dropped: u64,
}

/// Containers `GNode::vacuum` rewrites per journaled batch: the rewrite
/// holds every payload of a batch in memory at once (32 × 4 MiB).
const VACUUM_SLICE: usize = 32;

/// Health of one container's pair of OSS objects.
enum ContainerState {
    /// Both objects present and CRC-clean.
    Intact,
    /// Neither object readable as present (already deleted / never written).
    Missing,
    /// At least one object present but failing its checksum or decode.
    Corrupt,
}

/// The offline space-management node.
pub struct GNode {
    storage: StorageLayer,
    global: GlobalIndex,
    similar: SimilarFileIndex,
    journal: Journal,
    config: SlimConfig,
    meta_cache_capacity: usize,
    telemetry: Scope,
}

impl GNode {
    /// Deploy the G-node over the shared storage layer and indexes.
    pub fn new(
        storage: StorageLayer,
        global: GlobalIndex,
        similar: SimilarFileIndex,
        config: SlimConfig,
    ) -> Result<Self> {
        config.validate()?;
        let journal = Journal::open(storage.oss().clone());
        Ok(GNode {
            storage,
            global,
            similar,
            journal,
            config,
            meta_cache_capacity: 1024,
            telemetry: Registry::new().scope("gnode"),
        })
    }

    /// Record into `scope` (canonically `gnode`) instead of the node's
    /// private registry: every cycle stage emits a span (`cycle`,
    /// `reverse_dedup`, `scc`, `mark`, `collect`, `scrub_orphans`, `vacuum`)
    /// and each cycle's work counters are added to the scope's totals.
    pub fn with_telemetry(mut self, scope: Scope) -> Self {
        self.telemetry = scope;
        self
    }

    /// The global fingerprint index (shared with old-version restores).
    pub fn global_index(&self) -> &GlobalIndex {
        &self.global
    }

    /// Run the full offline cycle for the version that just finished.
    pub fn run_cycle(&self, version: VersionId) -> Result<GNodeCycleStats> {
        let _cycle = self.telemetry.span("cycle");
        let manifest = self.storage.get_manifest(version)?;
        let mut cache = MetaCache::new(self.storage.clone(), self.meta_cache_capacity);
        let mut stats = GNodeCycleStats::default();

        // 1. Exact dedup over the new containers.
        let stage = self.telemetry.span("reverse_dedup");
        let (reverse_stats, relocations) = reverse_dedup(
            &self.storage,
            &self.global,
            &mut cache,
            &self.journal,
            &self.config,
            &manifest.new_containers,
        )?;
        stats.reverse = reverse_stats;
        drop(stage);

        // 2. Compact the containers this version uses sparsely.
        let stage = self.telemetry.span("scc");
        let files: Vec<_> = manifest.files.iter().map(|f| f.file.clone()).collect();
        let (scc_stats, sparse_garbage, referenced) = compact_sparse_containers(
            &self.storage,
            &self.global,
            &mut cache,
            &self.journal,
            &self.config,
            version,
            &files,
            &manifest.new_containers,
            relocations,
            &mut stats.reverse,
        )?;
        stats.scc = scc_stats;
        // Settle the version: its recipes are final, so record what they
        // name.
        settle_version(&self.storage, version, &sparse_garbage, &referenced)?;
        drop(stage);

        // 3. Mark phase for the previous version, if it still exists: what
        // it names (from its manifest) and this version no longer does.
        let stage = self.telemetry.span("mark");
        if version.0 > 0 {
            let prev = VersionId(version.0 - 1);
            if self.storage.get_manifest(prev).is_ok() {
                stats.marked_garbage = mark_unreferenced(&self.storage, prev, &referenced)?;
            }
        }
        drop(stage);

        // 4. Redundancy plane: reconstruct what the plane can repair, then
        // re-tier protection to this cycle's dedup state. Repair runs first
        // so a container the cycle damaged detection-wise can be grouped or
        // replicated again; re-tier runs last so replicas and parity reflect
        // the containers' final post-rewrite bytes.
        if self.config.redundancy {
            let stage = self.telemetry.span("repair");
            stats.repair = crate::redundancy::repair_quarantined(&self.storage, &self.global)?;
            drop(stage);
            let stage = self.telemetry.span("redundancy");
            stats.redundancy =
                crate::redundancy::update_redundancy(&self.storage, &self.journal, &self.config)?;
            drop(stage);
        }

        stats.emit(&self.telemetry);
        Ok(stats)
    }

    /// Sweep the oldest version (retention-window deletion).
    pub fn collect_version(&self, version: VersionId) -> Result<CollectStats> {
        let _stage = self.telemetry.span("collect");
        let stats = collect_version(
            &self.storage,
            &self.global,
            &self.similar,
            &self.journal,
            version,
        )?;
        let scope = &self.telemetry;
        scope
            .counter("collected_containers")
            .add(stats.containers_deleted);
        scope.counter("collected_bytes").add(stats.bytes_reclaimed);
        scope
            .counter("collected_recipes")
            .add(stats.recipes_deleted);
        Ok(stats)
    }

    /// Reclaim container/recipe keys left behind by backup jobs that died
    /// before their commit point (the version-manifest PUT). Safe to run in
    /// any G-node maintenance window — committed versions are untouched and
    /// the pass is idempotent. See [`crate::collect::scrub_orphans`].
    pub fn scrub_orphans(&self) -> Result<OrphanScrubStats> {
        let _stage = self.telemetry.span("scrub_orphans");
        let stats = scrub_orphans(&self.storage, Some(&self.global))?;
        let scope = &self.telemetry;
        scope.counter("scrub_keys_scanned").add(stats.keys_scanned);
        scope
            .counter("scrub_objects_reclaimed")
            .add(stats.objects_reclaimed());
        scope
            .counter("scrub_bytes_reclaimed")
            .add(stats.bytes_reclaimed);
        Ok(stats)
    }

    /// Physically reclaim every byte marked deleted: rewrite any container
    /// holding stale chunks and drop empty ones. Reverse deduplication
    /// defers physical deletion to batch it (§VI-A); vacuum is the batch —
    /// run it when storage cost matters more than offline I/O.
    pub fn vacuum(&self) -> Result<ReverseDedupStats> {
        let _stage = self.telemetry.span("vacuum");
        let mut cache = MetaCache::new(self.storage.clone(), self.meta_cache_capacity);
        let mut stats = ReverseDedupStats::default();
        let mut stale: Vec<ContainerId> = Vec::new();
        for id in self.storage.list_containers() {
            if cache.get(id)?.deleted_chunks() > 0 {
                stale.push(id);
            }
        }
        for slice in stale.chunks(VACUUM_SLICE) {
            rewrite_containers(
                &self.storage,
                &self.global,
                &mut cache,
                &self.journal,
                self.config.compression,
                0.0,
                slice,
                None,
                &mut stats,
            )?;
        }
        Ok(stats)
    }

    /// Replay the maintenance journal and repair corrupted maintenance
    /// state. Run on every startup, before any backup/restore traffic: a
    /// G-node cycle killed at any point leaves intents behind, and this pass
    /// drives the store back to a state from which re-running the cycle
    /// converges.
    ///
    /// Per intent kind:
    /// * `RepointIndex` — re-relocate each fingerprint whose target
    ///   container still holds a live copy (the deletion marks may be
    ///   durable while the index flip was lost with the memtable);
    /// * `RewriteContainer` — roll *forward* when the new container is
    ///   intact (flip index entries, delete the old object), roll *back*
    ///   when it is missing or corrupt (quarantine the remnants, repoint
    ///   entries at the still-whole old container);
    /// * `DropContainers` — re-delete (idempotent).
    ///
    /// Afterwards the global index's SSTables are CRC-verified; corrupt runs
    /// are quarantined and their lost entries re-derived from container
    /// metadata (ascending id order, so the newest live copy wins — the
    /// reverse-dedup invariant).
    pub fn recover(&self) -> Result<RecoveryReport> {
        let _stage = self.telemetry.span("recover");
        let mut report = RecoveryReport::default();

        let (pending, corrupt) = self.journal.pending()?;
        report.journal_records_quarantined = corrupt.len() as u64;
        for (_, intent) in &pending {
            match intent {
                Intent::RepointIndex { entries } => {
                    let mut by_dest: BTreeMap<ContainerId, Vec<_>> = BTreeMap::new();
                    for (fp, dest) in entries {
                        by_dest.entry(*dest).or_default().push(*fp);
                    }
                    for (dest, fps) in by_dest {
                        match self.container_state(dest)? {
                            ContainerState::Intact => {
                                let meta = self.storage.get_container_meta(dest)?;
                                for fp in fps {
                                    if meta.find_live(&fp).is_some() {
                                        self.global.relocate(&fp, dest)?;
                                    }
                                }
                            }
                            ContainerState::Missing => {}
                            ContainerState::Corrupt => {
                                report.objects_quarantined += self.quarantine_container(dest)?;
                            }
                        }
                    }
                }
                Intent::RewriteContainer { old, new } => match self.container_state(*new)? {
                    ContainerState::Intact => {
                        // Roll forward: the new copy is authoritative.
                        let meta = self.storage.get_container_meta(*new)?;
                        for entry in meta.entries.iter().filter(|e| !e.deleted) {
                            match self.global.get(&entry.fp)? {
                                Some(c) if c == *old => self.global.relocate(&entry.fp, *new)?,
                                None => self.global.insert(&entry.fp, *new)?,
                                _ => {}
                            }
                        }
                        self.storage.delete_container(*old)?;
                        report.rewrites_rolled_forward += 1;
                    }
                    state => {
                        // Roll back: the old object was only deleted after
                        // the new one was durably written and the index
                        // flushed, so here the old copy must still be whole.
                        if matches!(state, ContainerState::Corrupt) {
                            report.objects_quarantined += self.quarantine_container(*new)?;
                        }
                        match self.storage.get_container_meta(*old) {
                            Ok(meta) => {
                                for entry in meta.entries.iter().filter(|e| !e.deleted) {
                                    match self.global.get(&entry.fp)? {
                                        Some(c) if c == *new => {
                                            self.global.relocate(&entry.fp, *old)?
                                        }
                                        None => self.global.insert(&entry.fp, *old)?,
                                        _ => {}
                                    }
                                }
                                report.rewrites_rolled_back += 1;
                            }
                            Err(SlimError::ContainerMissing(_)) => {}
                            Err(SlimError::Corrupt { .. }) => {
                                // Genuine bit-rot of the sole surviving copy:
                                // nothing to roll to. Quarantine and report.
                                report.objects_quarantined += self.quarantine_container(*old)?;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                },
                Intent::DropContainers { ids } => {
                    self.storage.delete_containers(ids)?;
                }
                Intent::DropObjects { keys } => {
                    // Redundancy-plane drops roll forward: re-delete.
                    for res in self.storage.oss().delete_many(keys) {
                        match res {
                            Ok(()) | Err(SlimError::ObjectNotFound(_)) => {}
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
        }
        self.global.flush()?;
        for (seq, _) in &pending {
            self.journal.retire(*seq)?;
        }
        report.intents_replayed = pending.len() as u64;

        // Integrity sweep over the index's persistent runs; a dropped run
        // loses entries, so re-derive them from container metadata.
        let (quarantined, retired) = self.global.verify_and_repair()?;
        report.index_tables_quarantined = quarantined.len() as u64;
        report.index_tables_retired = retired as u64;
        if !quarantined.is_empty() {
            let (rederived, objects_quarantined) = self.rederive_index()?;
            report.index_entries_rederived = rederived;
            report.objects_quarantined += objects_quarantined;
        }

        let scope = &self.telemetry;
        scope
            .counter("journal.replayed")
            .add(report.intents_replayed);
        scope
            .counter("journal.rolled_forward")
            .add(report.rewrites_rolled_forward);
        scope
            .counter("journal.rolled_back")
            .add(report.rewrites_rolled_back);
        scope
            .counter("journal.corrupt")
            .add(report.journal_records_quarantined);
        scope
            .counter("quarantined_objects")
            .add(report.objects_quarantined);
        scope
            .counter("index.tables_quarantined")
            .add(report.index_tables_quarantined);
        scope
            .counter("index.tables_retired")
            .add(report.index_tables_retired);
        scope
            .counter("index.entries_rederived")
            .add(report.index_entries_rederived);
        Ok(report)
    }

    /// Full checksum sweep over every container's data and metadata objects.
    /// Corrupt containers are quarantined (both objects moved under the
    /// quarantine prefix) and their global-index entries removed, so reads
    /// fail honestly (`ChunkUnresolvable`) instead of returning garbage.
    /// Replicas under `redundancy/replica/` and parity blocks under
    /// `redundancy/parity/` are CRC-checked too — the re-tier trusts a
    /// listed one without reading it — and a rotten one is dropped, so the
    /// next re-tier rewrites it from the verified primaries. This is the heavy half of `slim scrub`;
    /// [`GNode::recover`] only verifies what the journal implicates.
    pub fn verify_checksums(&self) -> Result<IntegrityReport> {
        let _stage = self.telemetry.span("verify_checksums");
        let mut report = IntegrityReport::default();
        let mut doomed: HashSet<ContainerId> = HashSet::new();
        // A container lists itself by its meta object, so one whose meta was
        // lost outright would be invisible here (and the next re-tier would
        // drop its protection as "deleted"): its meta replica still names it.
        let mut ids: BTreeSet<ContainerId> = self.storage.list_containers().into_iter().collect();
        ids.extend(
            self.storage
                .oss()
                .list(layout::REPLICA_PREFIX)
                .iter()
                .filter_map(|rkey| layout::replica_original(rkey))
                .filter(|key| key.ends_with("/meta"))
                .filter_map(layout::parse_container_key),
        );
        for id in ids {
            report.containers_checked += 1;
            if let ContainerState::Corrupt = self.container_state(id)? {
                report.containers_quarantined += 1;
                report.objects_quarantined += self.quarantine_container(id)?;
                doomed.insert(id);
            }
        }
        report.index_entries_removed = self.global.remove_references_to(&doomed)?;

        report.replicas_dropped =
            crate::redundancy::drop_rotten_copies(self.storage.oss().as_ref(), &self.journal)?;

        let scope = &self.telemetry;
        scope
            .counter("integrity.containers_checked")
            .add(report.containers_checked);
        scope
            .counter("integrity.replicas_dropped")
            .add(report.replicas_dropped);
        scope
            .counter("quarantined_objects")
            .add(report.objects_quarantined);
        scope
            .counter("integrity.index_entries_removed")
            .add(report.index_entries_removed);
        Ok(report)
    }

    /// Full self-healing sweep (`slim scrub --repair`, and the cycle's
    /// repair stage): CRC-verify every container, quarantine damage, then
    /// reconstruct every repairable quarantined container from the
    /// redundancy plane and re-point the global index at the revived
    /// copies. Both halves are idempotent — verification quarantines by
    /// raw moves, reconstruction rewrites byte-identical primaries — so a
    /// kill at any point re-runs cleanly after [`GNode::recover`].
    pub fn repair(&self) -> Result<(IntegrityReport, RepairReport)> {
        let integrity = self.verify_checksums()?;
        let stage = self.telemetry.span("repair");
        let repair = crate::redundancy::repair_quarantined(&self.storage, &self.global)?;
        drop(stage);
        let scope = &self.telemetry;
        scope
            .counter("repair.containers_repaired")
            .add(repair.containers_repaired);
        scope
            .counter("repair.containers_unrepairable")
            .add(repair.containers_unrepairable);
        scope
            .counter("repair.objects_rewritten")
            .add(repair.objects_rewritten);
        scope
            .counter("repair.index_entries_restored")
            .add(repair.index_entries_restored);
        Ok((integrity, repair))
    }

    /// Re-tier the redundancy plane to the current dedup state without
    /// running a full cycle (see [`crate::redundancy::update_redundancy`]).
    pub fn update_redundancy(&self) -> Result<RedundancyStats> {
        let _stage = self.telemetry.span("redundancy");
        let stats =
            crate::redundancy::update_redundancy(&self.storage, &self.journal, &self.config)?;
        stats.emit(&self.telemetry);
        Ok(stats)
    }

    /// Split the quarantined containers into `(repairable, lost)` counts by
    /// probing the redundancy plane for reconstruction sources.
    pub fn classify_quarantine(&self) -> Result<(u64, u64)> {
        crate::redundancy::classify_quarantine(self.storage.oss().as_ref())
    }

    /// Delete quarantined objects whose primaries are whole again; `force`
    /// discards everything, including unrepairable forensic copies.
    pub fn purge_quarantine(&self, force: bool) -> Result<PurgeReport> {
        crate::redundancy::purge_quarantine(self.storage.oss().as_ref(), force)
    }

    /// CRC-verify one container's pair of objects.
    ///
    /// Reads bypass the redundancy plane ([`ObjectStore::get_raw`]): this is
    /// the *detection* path, and a self-healing `get` would silently mask
    /// the damage it exists to find. Healing happens explicitly afterwards,
    /// in [`GNode::repair`] or the cycle's repair stage.
    fn container_state(&self, id: ContainerId) -> Result<ContainerState> {
        use slim_oss::{object_state, ObjectState};
        use slim_types::{crc, ContainerMeta};
        let oss = self.storage.oss().as_ref();
        match object_state(oss, &layout::container_meta(id))? {
            ObjectState::Intact(buf) => {
                let decoded = crc::unseal(&buf, "container meta")
                    .and_then(|payload| ContainerMeta::decode(&payload));
                if decoded.is_err() {
                    return Ok(ContainerState::Corrupt);
                }
            }
            ObjectState::Corrupt => return Ok(ContainerState::Corrupt),
            ObjectState::Missing => {
                // No meta. A leftover data object is a remnant, not a
                // container; report Corrupt so callers quarantine it.
                return match oss.exists(&layout::container_data(id))? {
                    true => Ok(ContainerState::Corrupt),
                    false => Ok(ContainerState::Missing),
                };
            }
        }
        match object_state(oss, &layout::container_data(id))? {
            ObjectState::Intact(_) => Ok(ContainerState::Intact),
            ObjectState::Corrupt | ObjectState::Missing => Ok(ContainerState::Corrupt),
        }
    }

    /// Move a container's surviving objects under the quarantine prefix
    /// (raw byte moves — the objects may not decode, so the copy must not
    /// trigger read-repair either). Returns the number of objects moved.
    fn quarantine_container(&self, id: ContainerId) -> Result<u64> {
        let oss = self.storage.oss();
        let mut moved = 0u64;
        for key in [layout::container_data(id), layout::container_meta(id)] {
            match oss.get_raw(&key) {
                Ok(buf) => {
                    oss.put(&layout::quarantine_key(&key), buf)?;
                    oss.delete(&key)?;
                    moved += 1;
                }
                Err(SlimError::ObjectNotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(moved)
    }

    /// Rebuild global-index entries from container metadata after a corrupt
    /// index run was dropped. Ascending id order, so for a fingerprint with
    /// several live copies the newest container wins (the reverse-dedup
    /// invariant). Containers whose metadata fails verification are
    /// quarantined along the way. Returns `(entries inserted, objects
    /// quarantined)`.
    fn rederive_index(&self) -> Result<(u64, u64)> {
        let mut ids = self.storage.list_containers();
        ids.sort();
        let mut inserted = 0u64;
        let mut objects_quarantined = 0u64;
        let mut doomed: HashSet<ContainerId> = HashSet::new();
        for batch in ids.chunks(64) {
            for (&id, meta) in batch
                .iter()
                .zip(self.storage.get_container_meta_many(batch))
            {
                let meta = match meta {
                    Ok(meta) => meta,
                    Err(SlimError::ContainerMissing(_)) => continue,
                    Err(SlimError::Corrupt { .. }) => {
                        objects_quarantined += self.quarantine_container(id)?;
                        doomed.insert(id);
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                for entry in meta.entries.iter().filter(|e| !e.deleted) {
                    self.global.insert(&entry.fp, id)?;
                    inserted += 1;
                }
            }
        }
        self.global.flush()?;
        self.global.remove_references_to(&doomed)?;
        Ok((inserted, objects_quarantined))
    }

    /// Live bytes still held by the containers a version created — the
    /// Fig 9(b) "space occupied by version N" series (it shrinks over time
    /// as reverse dedup and SCC move data forward).
    pub fn version_occupied_bytes(&self, version: VersionId) -> Result<u64> {
        let manifest = self.storage.get_manifest(version)?;
        let mut total = 0u64;
        for &container in &manifest.new_containers {
            if self.storage.container_exists(container)? {
                total += self.storage.get_container_meta(container)?.live_bytes();
            }
        }
        Ok(total)
    }

    /// Containers referenced by a version's recipes (diagnostics).
    pub fn referenced_containers(&self, version: VersionId) -> Result<Vec<ContainerId>> {
        let manifest = self.storage.get_manifest(version)?;
        Ok(recipe_containers(&self.storage, &manifest)?
            .into_iter()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse_dedup::reverse_dedup;
    use slim_chunking::{ChunkSpec, FastCdcChunker};
    use slim_lnode::backup::BackupPipeline;
    use slim_lnode::restore::{RestoreEngine, RestoreOptions};
    use slim_oss::rocks::RocksConfig;
    use slim_oss::{ObjectStore, Oss};
    use slim_types::rng::bytes as data;
    use slim_types::{FileId, VersionManifest};
    use std::sync::Arc;

    struct Env {
        oss: Oss,
        storage: StorageLayer,
        similar: SimilarFileIndex,
        gnode: GNode,
        config: SlimConfig,
    }

    fn setup() -> Env {
        let oss = Oss::in_memory();
        setup_over(Arc::new(oss.clone()), oss)
    }

    /// An environment whose storage layer and G-node go through `store`, a
    /// view of `oss`.
    fn setup_over(store: Arc<dyn ObjectStore>, oss: Oss) -> Env {
        let storage = StorageLayer::open(store);
        let similar = SimilarFileIndex::new();
        let global =
            GlobalIndex::open_with(Arc::new(oss.clone()), RocksConfig::small_for_tests(), 8192)
                .unwrap();
        let config = SlimConfig::small_for_tests();
        let gnode = GNode::new(storage.clone(), global, similar.clone(), config.clone()).unwrap();
        Env {
            oss,
            storage,
            similar,
            gnode,
            config,
        }
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

        fn restore(&self, file: &FileId, version: u64) -> Vec<u8> {
            RestoreEngine::new(&self.storage, Some(self.gnode.global_index()))
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
    fn full_cycle_preserves_all_versions() {
        let env = setup();
        let a = FileId::new("a");
        let b = FileId::new("b");
        let mut versions: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut da = data(1, 40_000);
        let db = data(2, 24_000);
        for v in 0..4u64 {
            env.backup_version(v, &[(&a, &da), (&b, &db)]);
            env.gnode.run_cycle(VersionId(v)).unwrap();
            versions.push((da.clone(), db.clone()));
            let patch = data(50 + v, 2_000);
            let at = 3_000 + v as usize * 7_000;
            da[at..at + 2_000].copy_from_slice(&patch);
        }
        for (v, (ea, eb)) in versions.iter().enumerate() {
            assert_eq!(&env.restore(&a, v as u64), ea, "file a version {v}");
            assert_eq!(&env.restore(&b, v as u64), eb, "file b version {v}");
        }
    }

    #[test]
    fn reverse_dedup_catches_cross_file_duplicates() {
        let env = setup();
        let a = FileId::new("dir1/x");
        let b = FileId::new("dir2/y");
        let shared = data(3, 30_000);
        // Two different files with identical content, same version. Online
        // dedup of `b` may or may not find `a` (similarity detection), so
        // force the miss case by giving b a unique prefix.
        let mut b_content = data(4, 2_000);
        b_content.extend_from_slice(&shared);
        env.backup_version(0, &[(&a, &shared), (&b, &b_content)]);
        let stats = env.gnode.run_cycle(VersionId(0)).unwrap();
        let store_bytes = env.storage.container_store_bytes().unwrap();
        // Regardless of what online dedup caught, after the G-node cycle the
        // store holds at most one copy of the shared content (plus slack).
        assert!(
            store_bytes < (shared.len() + b_content.len()) as u64,
            "exact dedup should shrink the store: {store_bytes}"
        );
        assert!(stats.reverse.chunks_scanned > 0);
        assert_eq!(env.restore(&a, 0), shared);
        assert_eq!(env.restore(&b, 0), b_content);
    }

    #[test]
    fn old_version_space_shrinks_over_time() {
        let env = setup();
        let f = FileId::new("f");
        let mut cur = data(5, 48_000);
        env.backup_version(0, &[(&f, &cur)]);
        env.gnode.run_cycle(VersionId(0)).unwrap();
        let initial = env.gnode.version_occupied_bytes(VersionId(0)).unwrap();
        for v in 1..5u64 {
            // Keep small *scattered* slivers — one per v0 container — so
            // those containers are referenced at low utilization, become
            // sparse, and lose their useful chunks to SCC.
            let mut next = Vec::new();
            let filler = data(60 + v, 42_000);
            for i in 0..6usize {
                next.extend_from_slice(&cur[i * 8_000..i * 8_000 + 1_000]);
                next.extend_from_slice(&filler[i * 7_000..(i + 1) * 7_000]);
            }
            cur = next;
            env.backup_version(v, &[(&f, &cur)]);
            env.gnode.run_cycle(VersionId(v)).unwrap();
        }
        let final_bytes = env.gnode.version_occupied_bytes(VersionId(0)).unwrap();
        assert!(
            final_bytes < initial,
            "v0 occupied bytes should decrease: {initial} -> {final_bytes}"
        );
        // And version 0 still restores (relocations resolve globally).
        assert!(!env.restore(&f, 0).is_empty());
    }

    #[test]
    fn retention_window_reclaims_old_versions() {
        let env = setup();
        let f = FileId::new("f");
        let mut contents = Vec::new();
        let mut cur = data(6, 30_000);
        for v in 0..5u64 {
            env.backup_version(v, &[(&f, &cur)]);
            env.gnode.run_cycle(VersionId(v)).unwrap();
            contents.push(cur.clone());
            cur = {
                let keep = cur[..10_000].to_vec();
                let mut next = data(80 + v, 20_000);
                next.splice(0..0, keep);
                next
            };
        }
        // Keep only the last 3 versions.
        let before = env.storage.container_store_bytes().unwrap();
        env.gnode.collect_version(VersionId(0)).unwrap();
        env.gnode.collect_version(VersionId(1)).unwrap();
        let after = env.storage.container_store_bytes().unwrap();
        assert!(after <= before);
        for v in 2..5u64 {
            assert_eq!(env.restore(&f, v), contents[v as usize], "survivor {v}");
        }
        assert!(env.storage.get_recipe(&f, VersionId(0)).is_err());
    }

    #[test]
    fn scrub_after_cycles_reclaims_nothing_and_preserves_restores() {
        // Reverse dedup and SCC create and rewrite containers the manifests
        // never listed; the scrub's reachable set (manifests + recipes +
        // global index) must cover all of them.
        let env = setup();
        let f = FileId::new("f");
        let mut contents = Vec::new();
        let mut cur = data(9, 40_000);
        for v in 0..3u64 {
            env.backup_version(v, &[(&f, &cur)]);
            env.gnode.run_cycle(VersionId(v)).unwrap();
            contents.push(cur.clone());
            let patch = data(90 + v, 3_000);
            let at = 5_000 + v as usize * 9_000;
            cur[at..at + 3_000].copy_from_slice(&patch);
        }
        let stats = env.gnode.scrub_orphans().unwrap();
        assert_eq!(stats.objects_reclaimed(), 0, "{stats:?}");
        for (v, expect) in contents.iter().enumerate() {
            assert_eq!(&env.restore(&f, v as u64), expect, "version {v}");
        }
    }

    #[test]
    fn telemetry_scope_collects_cycle_stages() {
        let oss = Oss::in_memory();
        let storage = StorageLayer::open(Arc::new(oss.clone()));
        let similar = SimilarFileIndex::new();
        let global =
            GlobalIndex::open_with(Arc::new(oss.clone()), RocksConfig::small_for_tests(), 8192)
                .unwrap();
        let config = SlimConfig::small_for_tests();
        let registry = slim_telemetry::Registry::new();
        let gnode = GNode::new(storage.clone(), global, similar.clone(), config.clone())
            .unwrap()
            .with_telemetry(registry.scope("gnode"));
        let env = Env {
            oss,
            storage,
            similar,
            gnode,
            config,
        };

        let f = FileId::new("f");
        env.backup_version(0, &[(&f, &data(11, 40_000))]);
        env.gnode.run_cycle(VersionId(0)).unwrap();
        env.gnode.scrub_orphans().unwrap();

        let snap = registry.snapshot();
        for stage in ["cycle", "reverse_dedup", "scc", "mark", "scrub_orphans"] {
            let span = snap
                .span("gnode", stage)
                .unwrap_or_else(|| panic!("span {stage}"));
            assert_eq!(span.count, 1, "span {stage}");
            assert!(span.sum > 0, "span {stage} has duration");
        }
        assert_eq!(snap.counter("gnode.cycles"), 1);
        assert!(snap.counter("gnode.chunks_scanned") > 0);
        assert!(snap.counter("gnode.scrub_keys_scanned") > 0);
    }

    #[test]
    fn cycle_is_idempotent() {
        let env = setup();
        let f = FileId::new("f");
        let input = data(7, 30_000);
        env.backup_version(0, &[(&f, &input)]);
        env.gnode.run_cycle(VersionId(0)).unwrap();
        let bytes_after_first = env.storage.container_store_bytes().unwrap();
        let stats = env.gnode.run_cycle(VersionId(0)).unwrap();
        assert_eq!(stats.reverse.duplicates_removed, 0);
        assert_eq!(
            env.storage.container_store_bytes().unwrap(),
            bytes_after_first
        );
        assert_eq!(env.restore(&f, 0), input);
    }

    fn fp(b: u8) -> slim_types::Fingerprint {
        slim_types::Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    fn put_container(env: &Env, chunks: &[(u8, usize)]) -> ContainerId {
        let id = env.storage.allocate_container_id();
        let mut b = slim_types::ContainerBuilder::new(id, 1 << 20);
        for &(tag, len) in chunks {
            b.push(fp(tag), &vec![tag; len]);
        }
        let (data, meta) = b.seal();
        env.storage.put_container(data, &meta).unwrap();
        id
    }

    #[test]
    fn recover_is_noop_on_clean_state() {
        let env = setup();
        let f = FileId::new("f");
        env.backup_version(0, &[(&f, &data(30, 30_000))]);
        env.gnode.run_cycle(VersionId(0)).unwrap();
        let report = env.gnode.recover().unwrap();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn recover_rolls_interrupted_rewrite_forward() {
        let env = setup();
        // Simulate a rewrite killed after the new container was written and
        // its intent recorded, but before the index flip and old-object
        // delete: old still whole, index still pointing at it.
        let old = put_container(&env, &[(1, 100), (2, 100)]);
        let global = env.gnode.global_index();
        global.insert(&fp(1), old).unwrap();
        global.insert(&fp(2), old).unwrap();
        global.flush().unwrap();
        let new = put_container(&env, &[(1, 100), (2, 100)]);
        let journal = crate::journal::Journal::open(env.storage.oss().clone());
        journal
            .record(&Intent::RewriteContainer { old, new })
            .unwrap();

        let report = env.gnode.recover().unwrap();
        assert_eq!(report.intents_replayed, 1);
        assert_eq!(report.rewrites_rolled_forward, 1);
        assert_eq!(global.get(&fp(1)).unwrap(), Some(new));
        assert_eq!(global.get(&fp(2)).unwrap(), Some(new));
        assert!(!env.storage.container_exists(old).unwrap());
        assert!(journal.is_empty());
        assert!(env.gnode.recover().unwrap().is_clean());
    }

    #[test]
    fn recover_rolls_back_when_new_copy_is_corrupt() {
        use bytes::Bytes;
        let env = setup();
        // The index flip reached OSS but the new container's objects are
        // garbage (torn write): recovery must quarantine the remnants and
        // repoint the index at the still-whole old container.
        let old = put_container(&env, &[(1, 100), (2, 100)]);
        let new = env.storage.allocate_container_id();
        let global = env.gnode.global_index();
        global.insert(&fp(1), new).unwrap();
        global.insert(&fp(2), new).unwrap();
        global.flush().unwrap();
        let data_key = slim_types::layout::container_data(new);
        let meta_key = slim_types::layout::container_meta(new);
        env.oss.put(&data_key, Bytes::from(vec![0xAB; 64])).unwrap();
        env.oss.put(&meta_key, Bytes::from(vec![0xCD; 32])).unwrap();
        let journal = crate::journal::Journal::open(env.storage.oss().clone());
        journal
            .record(&Intent::RewriteContainer { old, new })
            .unwrap();

        let report = env.gnode.recover().unwrap();
        assert_eq!(report.rewrites_rolled_back, 1);
        assert_eq!(report.objects_quarantined, 2);
        assert_eq!(global.get(&fp(1)).unwrap(), Some(old));
        assert_eq!(global.get(&fp(2)).unwrap(), Some(old));
        let qkey = slim_types::layout::quarantine_key(&data_key);
        assert!(env.oss.exists(&qkey).unwrap());
        assert!(!env.oss.exists(&data_key).unwrap());
        assert!(env.storage.container_exists(old).unwrap());
        assert!(journal.is_empty());
    }

    #[test]
    fn recover_rederives_index_after_sst_quarantine() {
        let env = setup();
        let f = FileId::new("f");
        let mut contents = Vec::new();
        let mut cur = data(33, 40_000);
        for v in 0..3u64 {
            env.backup_version(v, &[(&f, &cur)]);
            env.gnode.run_cycle(VersionId(v)).unwrap();
            contents.push(cur.clone());
            let patch = data(60 + v, 3_000);
            let at = 5_000 + v as usize * 9_000;
            cur[at..at + 3_000].copy_from_slice(&patch);
        }
        // Rot one of the index's SSTable objects.
        let key = env
            .oss
            .list(slim_types::layout::GLOBAL_INDEX_PREFIX)
            .into_iter()
            .find(|k| k.contains("sst/"))
            .expect("cycles must have flushed an index run");
        let mut buf = env.oss.get(&key).unwrap().to_vec();
        buf[10] ^= 0x10;
        env.oss.put(&key, bytes::Bytes::from(buf)).unwrap();

        let report = env.gnode.recover().unwrap();
        assert!(report.index_tables_quarantined >= 1, "{report:?}");
        assert!(report.index_entries_rederived > 0, "{report:?}");
        // Old versions depend on the global index for relocated chunks; the
        // re-derived index must resolve all of them.
        for (v, expect) in contents.iter().enumerate() {
            assert_eq!(&env.restore(&f, v as u64), expect, "version {v}");
        }
    }

    #[test]
    fn verify_checksums_quarantines_corrupt_containers() {
        let env = setup();
        let f = FileId::new("f");
        let input = data(44, 40_000);
        env.backup_version(0, &[(&f, &input)]);
        env.gnode.run_cycle(VersionId(0)).unwrap();
        let clean = env.gnode.verify_checksums().unwrap();
        assert_eq!(clean.containers_quarantined, 0);
        assert!(clean.containers_checked > 0);

        // Rot one container's data object.
        let victim = *env.storage.list_containers().first().unwrap();
        let key = slim_types::layout::container_data(victim);
        let mut buf = env.oss.get(&key).unwrap().to_vec();
        buf[0] ^= 0x01;
        env.oss.put(&key, bytes::Bytes::from(buf)).unwrap();

        let report = env.gnode.verify_checksums().unwrap();
        assert_eq!(report.containers_quarantined, 1);
        assert_eq!(report.objects_quarantined, 2, "data and meta both move");
        assert!(report.index_entries_removed > 0);
        assert!(!env.storage.container_exists(victim).unwrap());
        assert!(env
            .oss
            .exists(&slim_types::layout::quarantine_key(&key))
            .unwrap());
        // The damaged version now fails honestly instead of returning bytes.
        let err = RestoreEngine::new(&env.storage, Some(env.gnode.global_index()))
            .restore_file(&f, VersionId(0), &RestoreOptions::from_config(&env.config))
            .unwrap_err();
        assert!(
            matches!(err, slim_types::SlimError::ChunkUnresolvable { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn cycle_builds_redundancy_plane() {
        let env = setup();
        let f = FileId::new("f");
        env.backup_version(0, &[(&f, &data(70, 60_000))]);
        let stats = env.gnode.run_cycle(VersionId(0)).unwrap();
        let ids = env.storage.list_containers();
        assert!(!ids.is_empty());
        // Every live container's metadata object is replicated.
        for id in &ids {
            let rkey = slim_types::layout::replica_key(&slim_types::layout::container_meta(*id));
            assert!(env.oss.exists(&rkey).unwrap(), "meta replica for {id:?}");
        }
        // Every data object is protected by one tier or the other.
        assert_eq!(
            stats.redundancy.replica_tier + stats.redundancy.parity_tier,
            ids.len() as u64,
            "{:?}",
            stats.redundancy
        );
        assert!(stats.redundancy.replicas_written >= ids.len() as u64);
    }

    #[test]
    fn retier_is_idempotent() {
        let env = setup();
        let f = FileId::new("f");
        env.backup_version(0, &[(&f, &data(72, 60_000))]);
        env.gnode.run_cycle(VersionId(0)).unwrap();
        let before = bucket(&env.oss);
        let again = env.gnode.update_redundancy().unwrap();
        assert_eq!(again.replicas_written, 0, "{again:?}");
        assert_eq!(again.parity_groups_sealed, 0, "{again:?}");
        assert_eq!(again.objects_dropped, 0, "{again:?}");
        assert_eq!(bucket(&env.oss), before, "a second pass writes nothing");
    }

    /// Every object of the bucket, bytes included.
    fn bucket(oss: &Oss) -> Vec<(String, bytes::Bytes)> {
        oss.list("")
            .into_iter()
            .map(|key| {
                let bytes = oss.get(&key).unwrap();
                (key, bytes)
            })
            .collect()
    }

    /// Fan-in the slow way: every retained version's recipes, record by
    /// record.
    fn recount(env: &Env) -> std::collections::HashMap<ContainerId, u64> {
        let mut fan_in = std::collections::HashMap::new();
        for v in env.storage.list_versions() {
            let mut named = BTreeSet::new();
            for file in &env.storage.get_manifest(v).unwrap().files {
                let recipe = env.storage.get_recipe(&file.file, v).unwrap();
                named.extend(recipe.records().map(|r| r.container_id));
            }
            for id in named {
                *fan_in.entry(id).or_insert(0u64) += 1;
            }
        }
        fan_in
    }

    /// Versions of one file that keep most of their bytes, so containers
    /// accumulate fan-in, while a moving window is rewritten each time.
    fn drifting_versions(seed: u64, versions: usize) -> Vec<Vec<u8>> {
        let mut cur = data(seed, 60_000);
        (0..versions)
            .map(|v| {
                let at = 4_000 + v * 9_000;
                cur[at..at + 3_000].copy_from_slice(&data(seed + 100 + v as u64, 3_000));
                cur.clone()
            })
            .collect()
    }

    #[test]
    fn fan_in_is_a_recount_of_what_the_retained_recipes_name() {
        use crate::fanin::version_fan_in;
        let env = setup();
        let f = FileId::new("f");
        for (v, content) in drifting_versions(80, 5).iter().enumerate() {
            env.backup_version(v as u64, &[(&f, content)]);
            env.gnode.run_cycle(VersionId(v as u64)).unwrap();
            let fan_in = version_fan_in(&env.storage).unwrap();
            assert_eq!(fan_in, recount(&env), "after cycle {v}");
            let max = *fan_in.values().max().unwrap();
            assert!(max <= v as u64 + 1 && max >= (v as u64 + 1).min(2), "{max}");
            // The settled manifest carries the set; nothing had to be derived.
            let settled = env.storage.get_manifest(VersionId(v as u64)).unwrap();
            assert!(!settled.referenced_containers.is_empty());
        }
        // A retention sweep lowers fan-in by deleting manifests: nothing to
        // decrement, nothing to double-count.
        env.gnode.collect_version(VersionId(0)).unwrap();
        env.gnode.collect_version(VersionId(1)).unwrap();
        let fan_in = version_fan_in(&env.storage).unwrap();
        assert_eq!(fan_in, recount(&env), "after the sweep");
        assert!(fan_in.values().all(|&n| n <= 3));
        // And so does a re-run cycle.
        env.gnode.run_cycle(VersionId(4)).unwrap();
        assert_eq!(version_fan_in(&env.storage).unwrap(), recount(&env));
    }

    #[test]
    fn fan_in_survives_a_killed_and_rerun_cycle() {
        use crate::fanin::version_fan_in;
        use slim_oss::FaultPlan;
        let contents = drifting_versions(81, 3);
        let f = FileId::new("f");
        let mut kill = 1u64;
        loop {
            assert!(kill < 2_000, "the cycle never survived the kill sweep");
            let oss = Oss::in_memory();
            let env = setup_over(Arc::new(oss.clone()), oss.clone());
            for (v, content) in contents.iter().enumerate() {
                env.backup_version(v as u64, &[(&f, content)]);
                if v < 2 {
                    env.gnode.run_cycle(VersionId(v as u64)).unwrap();
                }
            }
            oss.inject_fault(FaultPlan::NthOnPrefix {
                prefix: String::new(),
                nth: kill,
            });
            let survived = env.gnode.run_cycle(VersionId(2)).is_ok();
            oss.clear_faults();
            env.gnode.recover().unwrap();
            env.gnode.run_cycle(VersionId(2)).unwrap();
            assert_eq!(
                version_fan_in(&env.storage).unwrap(),
                recount(&env),
                "kill point {kill}"
            );
            let orphans = parity_blocks_without_a_manifest(&oss);
            assert_eq!(orphans, Vec::<String>::new(), "kill point {kill}");
            if survived {
                break;
            }
            kill += 3;
        }
    }

    fn parity_blocks_without_a_manifest(oss: &Oss) -> Vec<String> {
        oss.list(layout::PARITY_DATA_PREFIX)
            .into_iter()
            .filter(|key| {
                let gid = key.strip_prefix(layout::PARITY_DATA_PREFIX).unwrap();
                !oss.exists(&format!("{}{gid}", layout::PARITY_GROUP_PREFIX))
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn manifests_without_the_set_yield_the_same_tiers() {
        let contents = drifting_versions(82, 3);
        let f = FileId::new("f");
        let history = || {
            let env = setup();
            for (v, content) in contents.iter().enumerate() {
                env.backup_version(v as u64, &[(&f, content)]);
                env.gnode.run_cycle(VersionId(v as u64)).unwrap();
            }
            env
        };
        let (settled, legacy) = (history(), history());
        // What a format-1 manifest decodes to: no set.
        for v in legacy.storage.list_versions() {
            let mut manifest = legacy.storage.get_manifest(v).unwrap();
            manifest.referenced_containers.clear();
            legacy.storage.put_manifest(&manifest).unwrap();
        }
        let want = settled.gnode.update_redundancy().unwrap();
        assert!(want.replica_tier > 0 && want.parity_tier > 0, "{want:?}");
        let got = legacy.gnode.update_redundancy().unwrap();
        assert_eq!(got, want);
        // The recipes were read once: the sets are back in the manifests.
        assert_eq!(bucket(&legacy.oss), bucket(&settled.oss));
    }

    #[test]
    fn promotion_is_one_way_and_keeps_the_others_seated() {
        let oss = Oss::in_memory();
        let reads = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let counting = DataReads {
            inner: oss.clone(),
            keys: reads.clone(),
        };
        let env = setup_over(Arc::new(counting), oss.clone());
        let f = FileId::new("f");
        let contents = drifting_versions(83, 2);
        env.backup_version(0, &[(&f, &contents[0])]);
        let first = env.gnode.run_cycle(VersionId(0)).unwrap().redundancy;
        assert_eq!(first.replica_tier, 0, "fan-in 1 is below the threshold");
        assert!(first.parity_tier > 4, "{first:?}");

        // The second version names most of the first one's containers:
        // those cross the threshold of 2 and are copied, each read once.
        env.backup_version(1, &[(&f, &contents[1])]);
        reads.lock().clear();
        let second = env.gnode.run_cycle(VersionId(1)).unwrap().redundancy;
        assert!(second.promotions > 0, "{second:?}");
        assert_eq!(second.replica_tier, second.promotions);
        assert!(second.parity_tier > 0, "{second:?}");
        // Nobody was regrouped for it: the only groups sealed hold the new
        // version's containers, and the only data read besides those and the
        // promoted ones is what the cycle's own stages fetched.
        assert_eq!(second.groups_resealed, 0, "{second:?}");
        let replicas = oss
            .list(layout::REPLICA_PREFIX)
            .into_iter()
            .filter(|k| k.ends_with("/data"))
            .count() as u64;
        assert_eq!(replicas, second.promotions);

        // The old version goes: fan-in falls back to 1, the replicas stay
        // (their containers are on the way out, not worth a regroup) and the
        // pass reads no data object.
        env.gnode.collect_version(VersionId(0)).unwrap();
        reads.lock().clear();
        let after = env.gnode.update_redundancy().unwrap();
        assert_eq!(after.promotions, 0, "{after:?}");
        assert_eq!(after.parity_groups_sealed, 0, "{after:?}");
        let still_live = env
            .storage
            .list_containers()
            .iter()
            .filter(|&&id| {
                oss.exists(&layout::replica_key(&layout::container_data(id)))
                    .unwrap()
            })
            .count() as u64;
        assert_eq!(after.replica_tier, still_live);
        assert!(after.replica_tier > 0, "{after:?}");
        let gone: Vec<String> = reads
            .lock()
            .iter()
            .filter(|key| oss.exists(key).unwrap())
            .cloned()
            .collect();
        assert_eq!(gone, Vec::<String>::new(), "no live data object is read");
    }

    #[test]
    fn rewritten_container_inherits_the_replica_tier() {
        let env = setup();
        // A container that earned a replica ...
        let old = put_container(&env, &[(1, 300), (2, 300), (3, 300)]);
        let old_key = layout::container_data(old);
        env.oss
            .put(
                &layout::replica_key(&old_key),
                env.oss.get(&old_key).unwrap(),
            )
            .unwrap();
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let run = |cache: &mut MetaCache, new: &[ContainerId]| {
            reverse_dedup(
                &env.gnode.storage,
                &env.gnode.global,
                cache,
                &env.gnode.journal,
                &env.gnode.config,
                new,
            )
            .unwrap()
            .0
        };
        run(&mut cache, &[old]);
        // ... loses two of its three chunks to a newer copy and is rewritten.
        let new = put_container(&env, &[(1, 300), (2, 300)]);
        let stats = run(&mut cache, &[new]);
        assert_eq!(stats.containers_rewritten, 1);
        let heir = env.gnode.global.get(&fp(3)).unwrap().expect("chunk 3");
        assert_ne!(heir, old);
        // The successor was handed the tier, byte for byte.
        let heir_key = layout::container_data(heir);
        assert_eq!(
            env.oss.get(&layout::replica_key(&heir_key)).unwrap(),
            env.oss.get(&heir_key).unwrap()
        );
        // The re-tier keeps it there without reading it and drops the old
        // container's replica; the unreplicated newcomer joins a group.
        let stats = env.gnode.update_redundancy().unwrap();
        assert_eq!(stats.replica_tier, 1, "{stats:?}");
        assert_eq!(stats.promotions, 0, "{stats:?}");
        assert_eq!(stats.parity_tier, 1, "{stats:?}");
        assert!(!env.oss.exists(&layout::replica_key(&old_key)).unwrap());
        assert!(env.oss.exists(&layout::replica_key(&heir_key)).unwrap());
    }

    #[test]
    fn orphan_parity_blocks_are_dropped() {
        use slim_oss::FaultPlan;
        let env = setup();
        let f = FileId::new("f");
        env.backup_version(0, &[(&f, &data(84, 60_000))]);
        // Kill the first pass between a parity PUT and its manifest PUT.
        env.oss.inject_fault(FaultPlan::NthOnPrefix {
            prefix: layout::PARITY_GROUP_PREFIX.into(),
            nth: 2,
        });
        env.gnode.run_cycle(VersionId(0)).unwrap_err();
        env.oss.clear_faults();
        let orphans = parity_blocks_without_a_manifest(&env.oss);
        assert_eq!(orphans.len(), 1, "{orphans:?}");
        // The rerun seals what is left under fresh ids and drops the block
        // nothing will ever name.
        env.gnode.recover().unwrap();
        let rerun = env.gnode.run_cycle(VersionId(0)).unwrap().redundancy;
        assert!(rerun.parity_groups_sealed > 0, "{rerun:?}");
        assert!(rerun.objects_dropped >= 1, "{rerun:?}");
        assert!(!env.oss.exists(&orphans[0]).unwrap());
        assert_eq!(
            parity_blocks_without_a_manifest(&env.oss),
            Vec::<String>::new()
        );
        // Also when the pass that finds one has nothing to seal, which is
        // when the block used to stay for good.
        let stray = layout::parity_data(4_000);
        env.oss
            .put(&stray, slim_types::crc::seal(&[7u8; 64]))
            .unwrap();
        let steady = env.gnode.update_redundancy().unwrap();
        assert_eq!(steady.parity_groups_sealed, 0, "{steady:?}");
        assert_eq!(steady.objects_dropped, 1, "{steady:?}");
        assert!(!env.oss.exists(&stray).unwrap());
        assert!(env.oss.list(layout::JOURNAL_PREFIX).is_empty());
    }

    #[test]
    fn damaged_parity_block_is_dropped_and_its_members_resealed() {
        let env = setup();
        let f = FileId::new("f");
        env.backup_version(0, &[(&f, &data(86, 60_000))]);
        let built = env.gnode.run_cycle(VersionId(0)).unwrap().redundancy;
        let containers = env.storage.list_containers().len() as u64;
        assert_eq!(built.parity_tier, containers, "{built:?}");

        // Rot inside a block: the re-tier trusts what is listed, the scrub
        // finds it and takes the group's manifest along, the next re-tier
        // seals the members again.
        let block = env.oss.list(layout::PARITY_DATA_PREFIX).remove(0);
        let mut bad = env.oss.get(&block).unwrap().to_vec();
        bad[9] ^= 0x04;
        env.oss.put(&block, bytes::Bytes::from(bad)).unwrap();
        let trusting = env.gnode.update_redundancy().unwrap();
        assert_eq!(trusting.parity_groups_sealed, 0, "{trusting:?}");
        let report = env.gnode.verify_checksums().unwrap();
        assert_eq!(report.replicas_dropped, 1, "{report:?}");
        assert_eq!(report.containers_quarantined, 0, "{report:?}");
        assert!(!env.oss.exists(&block).unwrap());
        let resealed = env.gnode.update_redundancy().unwrap();
        assert_eq!(resealed.parity_groups_sealed, 1, "{resealed:?}");
        assert_eq!(resealed.parity_tier, containers, "{resealed:?}");

        // A block that vanished shows in the listing: one pass drops the
        // manifest that names nothing and seals its members again.
        let block = env.oss.list(layout::PARITY_DATA_PREFIX).remove(0);
        env.oss.delete(&block).unwrap();
        let resealed = env.gnode.update_redundancy().unwrap();
        assert_eq!(resealed.parity_groups_sealed, 1, "{resealed:?}");
        assert_eq!(resealed.objects_dropped, 1, "{resealed:?}");
        assert_eq!(resealed.parity_tier, containers, "{resealed:?}");
        assert_eq!(
            env.oss.list(layout::PARITY_DATA_PREFIX).len(),
            env.oss.list(layout::PARITY_GROUP_PREFIX).len()
        );
        assert_eq!(env.gnode.verify_checksums().unwrap().replicas_dropped, 0);
    }

    #[test]
    fn invalidated_group_survivors_are_fetched_exactly_once() {
        let oss = Oss::in_memory();
        let reads = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let counting = DataReads {
            inner: oss.clone(),
            keys: reads.clone(),
        };
        let env = setup_over(Arc::new(counting), oss.clone());
        let f = FileId::new("f");
        env.backup_version(0, &[(&f, &data(85, 60_000))]);
        env.gnode.run_cycle(VersionId(0)).unwrap();

        // Collect one member of the first group behind the plane's back.
        let gkey = oss.list(layout::PARITY_GROUP_PREFIX).remove(0);
        let group = slim_types::ParityGroup::decode(&oss.get(&gkey).unwrap()).unwrap();
        assert_eq!(group.members.len(), env.config.parity_group_size);
        let gone = &group.members[1].key;
        env.storage
            .delete_container(layout::parse_container_key(gone).unwrap())
            .unwrap();

        reads.lock().clear();
        let stats = env.gnode.update_redundancy().unwrap();
        assert_eq!(stats.groups_resealed, 1, "{stats:?}");
        assert_eq!(stats.parity_groups_sealed, 1, "{stats:?}");
        // One read per survivor serves both "is it damaged?" and the new
        // parity block; the collected member is probed, not found.
        let mut seen = reads.lock().clone();
        seen.sort();
        let mut want: Vec<String> = group.members.iter().map(|m| m.key.clone()).collect();
        want.sort();
        assert_eq!(seen, want);
        assert!(!oss.exists(&gkey).unwrap(), "the old group is gone");
        // Every survivor is covered again, by exactly one group.
        let mut covered: Vec<String> = oss
            .list(layout::PARITY_GROUP_PREFIX)
            .iter()
            .flat_map(|k| {
                slim_types::ParityGroup::decode(&oss.get(k).unwrap())
                    .unwrap()
                    .members
            })
            .map(|m| m.key)
            .collect();
        covered.sort();
        let mut live: Vec<String> = env
            .storage
            .list_containers()
            .into_iter()
            .map(layout::container_data)
            .collect();
        live.sort();
        assert_eq!(covered, live);
    }

    /// Passes everything through and records the key of every read (whole
    /// or ranged) of a container data object.
    struct DataReads {
        inner: Oss,
        keys: Arc<parking_lot::Mutex<Vec<String>>>,
    }

    impl DataReads {
        fn note(&self, key: &str) {
            if key.starts_with(layout::CONTAINER_PREFIX) && key.ends_with("/data") {
                self.keys.lock().push(key.to_string());
            }
        }
    }

    impl ObjectStore for DataReads {
        fn put(&self, key: &str, value: bytes::Bytes) -> Result<()> {
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> Result<bytes::Bytes> {
            self.note(key);
            self.inner.get(key)
        }
        fn get_range(&self, key: &str, start: u64, len: u64) -> Result<bytes::Bytes> {
            self.note(key);
            self.inner.get_range(key, start, len)
        }
        fn delete(&self, key: &str) -> Result<()> {
            self.inner.delete(key)
        }
        fn exists(&self, key: &str) -> Result<bool> {
            self.inner.exists(key)
        }
        fn len(&self, key: &str) -> Result<Option<u64>> {
            self.inner.len(key)
        }
        fn list(&self, prefix: &str) -> Vec<String> {
            self.inner.list(prefix)
        }
    }

    #[test]
    fn retier_reads_only_the_data_objects_that_lack_protection() {
        let oss = Oss::in_memory();
        let reads = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let counting = DataReads {
            inner: oss.clone(),
            keys: reads.clone(),
        };
        let env = setup_over(Arc::new(counting), oss);
        let f = FileId::new("f");
        env.backup_version(0, &[(&f, &data(73, 60_000))]);
        env.gnode.run_cycle(VersionId(0)).unwrap();

        // Steady state: every data object is protected, so none is read.
        reads.lock().clear();
        let steady = env.gnode.update_redundancy().unwrap();
        assert_eq!(*reads.lock(), Vec::<String>::new());
        let containers = env.storage.list_containers().len() as u64;
        assert_eq!(steady.primaries_read, containers, "metadata only");

        // One more backup: exactly its containers are read, once each.
        env.backup_version(1, &[(&f, &data(74, 60_000))]);
        let mut fresh: Vec<String> = env
            .storage
            .get_manifest(VersionId(1))
            .unwrap()
            .new_containers
            .iter()
            .map(|&id| layout::container_data(id))
            .collect();
        fresh.sort();
        assert!(!fresh.is_empty());
        reads.lock().clear();
        let delta = env.gnode.update_redundancy().unwrap();
        let mut seen = reads.lock().clone();
        seen.sort();
        assert_eq!(seen, fresh);
        assert_eq!(
            delta.primaries_read,
            env.storage.list_containers().len() as u64 + fresh.len() as u64
        );
    }

    #[test]
    fn rotten_data_replica_is_left_by_retier_and_renewed_after_scrub() {
        let env = setup();
        let f = FileId::new("f");
        // Two versions naming the same containers: fan-in 2, the test
        // configuration's replica threshold.
        for v in 0..2 {
            env.backup_version(v, &[(&f, &data(75, 60_000))]);
            env.gnode.run_cycle(VersionId(v)).unwrap();
        }
        let rkey = env
            .oss
            .list(layout::REPLICA_PREFIX)
            .into_iter()
            .find(|k| k.ends_with("/data"))
            .expect("a container in the replica tier");
        let good = env.oss.get(&rkey).unwrap();
        let mut bad = good.to_vec();
        bad[3] ^= 0x20;
        let bad = bytes::Bytes::from(bad);
        env.oss.put(&rkey, bad.clone()).unwrap();

        // The re-tier trusts a listed data replica without reading it.
        let stats = env.gnode.update_redundancy().unwrap();
        assert_eq!(stats.replicas_written, 0, "{stats:?}");
        assert_eq!(env.oss.get(&rkey).unwrap(), bad);

        // The scrub finds the rot and drops the replica (journaled) ...
        let report = env.gnode.verify_checksums().unwrap();
        assert_eq!(report.replicas_dropped, 1, "{report:?}");
        assert_eq!(report.containers_quarantined, 0, "{report:?}");
        assert!(!env.oss.exists(&rkey).unwrap());
        assert!(env.oss.list(layout::JOURNAL_PREFIX).is_empty());

        // ... and the next re-tier rewrites it from the verified primary.
        let stats = env.gnode.update_redundancy().unwrap();
        assert_eq!(stats.replicas_written, 1, "{stats:?}");
        assert_eq!(env.oss.get(&rkey).unwrap(), good);
        assert_eq!(env.gnode.verify_checksums().unwrap().replicas_dropped, 0);
    }

    #[test]
    fn repair_restores_quarantined_container_from_plane() {
        let env = setup();
        let f = FileId::new("f");
        let input = data(71, 60_000);
        env.backup_version(0, &[(&f, &input)]);
        env.gnode.run_cycle(VersionId(0)).unwrap(); // builds the plane
        let victim = *env.storage.list_containers().first().unwrap();
        let key = slim_types::layout::container_data(victim);
        let mut buf = env.oss.get(&key).unwrap().to_vec();
        buf[0] ^= 0x01;
        env.oss.put(&key, bytes::Bytes::from(buf)).unwrap();

        let (integrity, repair) = env.gnode.repair().unwrap();
        assert_eq!(integrity.containers_quarantined, 1);
        assert_eq!(repair.containers_repaired, 1, "{repair:?}");
        assert_eq!(repair.containers_unrepairable, 0);
        assert!(repair.objects_rewritten >= 1);
        // Second sweep is clean and the version restores byte-identically,
        // through the raw (non-healing) store.
        let clean = env.gnode.verify_checksums().unwrap();
        assert_eq!(clean.containers_quarantined, 0, "{clean:?}");
        assert_eq!(env.restore(&f, 0), input);
        // Purge releases the now-redundant quarantine copies.
        let purge = env.gnode.purge_quarantine(false).unwrap();
        assert_eq!(purge.objects_purged, 2, "{purge:?}");
        assert_eq!(purge.objects_kept, 0);
        assert!(env
            .oss
            .list(slim_types::layout::QUARANTINE_PREFIX)
            .is_empty());
    }

    #[test]
    fn repair_reconstructs_parity_tier_member_byte_identically() {
        let env = setup();
        // Three small containers no version names: fan-in 0, below any
        // replica threshold, so their data objects land in one parity group.
        let a = put_container(&env, &[(1, 400), (2, 400)]);
        let b = put_container(&env, &[(3, 400), (4, 400)]);
        let c = put_container(&env, &[(5, 400), (6, 400)]);
        let global = env.gnode.global_index();
        for (id, tags) in [(a, [1u8, 2]), (b, [3, 4]), (c, [5, 6])] {
            for t in tags {
                global.insert(&fp(t), id).unwrap();
            }
        }
        global.flush().unwrap();
        let stats = env.gnode.update_redundancy().unwrap();
        assert_eq!(stats.parity_groups_sealed, 1, "{stats:?}");
        assert_eq!(stats.parity_tier, 3);

        // Delete one member's data object outright.
        let key = slim_types::layout::container_data(b);
        let before = env.oss.get(&key).unwrap();
        env.oss.delete(&key).unwrap();

        let (integrity, repair) = env.gnode.repair().unwrap();
        assert_eq!(integrity.containers_quarantined, 1);
        assert_eq!(repair.containers_repaired, 1, "{repair:?}");
        assert_eq!(
            env.oss.get(&key).unwrap(),
            before,
            "byte-identical reconstruction"
        );
        assert_eq!(global.get(&fp(3)).unwrap(), Some(b));
        assert_eq!(global.get(&fp(4)).unwrap(), Some(b));
    }

    #[test]
    fn unrepairable_damage_is_reported_and_quarantine_kept() {
        let env = setup();
        // A container with no redundancy plane behind it: damage is honest
        // loss, and the forensic quarantine copy survives a non-forced purge.
        let id = put_container(&env, &[(9, 500)]);
        env.gnode.global_index().insert(&fp(9), id).unwrap();
        env.gnode.global_index().flush().unwrap();
        let key = slim_types::layout::container_data(id);
        let mut buf = env.oss.get(&key).unwrap().to_vec();
        buf[4] ^= 0xFF;
        env.oss.put(&key, bytes::Bytes::from(buf)).unwrap();

        let (integrity, repair) = env.gnode.repair().unwrap();
        assert_eq!(integrity.containers_quarantined, 1);
        assert_eq!(repair.containers_repaired, 0);
        assert_eq!(repair.containers_unrepairable, 1, "{repair:?}");
        let (repairable, lost) = env.gnode.classify_quarantine().unwrap();
        assert_eq!((repairable, lost), (0, 1));
        let purge = env.gnode.purge_quarantine(false).unwrap();
        assert_eq!(purge.objects_purged, 0, "{purge:?}");
        assert_eq!(purge.objects_kept, 2);
        // Forced purge discards the forensic copies too.
        let purge = env.gnode.purge_quarantine(true).unwrap();
        assert_eq!(purge.objects_purged, 2);
        assert!(env
            .oss
            .list(slim_types::layout::QUARANTINE_PREFIX)
            .is_empty());
    }

    #[test]
    fn recover_replays_drop_objects_intent() {
        let env = setup();
        let stale = "redundancy/replica/containers/000000000042/data";
        env.oss
            .put(stale, bytes::Bytes::from_static(b"obsolete"))
            .unwrap();
        let journal = crate::journal::Journal::open(env.storage.oss().clone());
        journal
            .record(&Intent::DropObjects {
                keys: vec![stale.to_string()],
            })
            .unwrap();
        let report = env.gnode.recover().unwrap();
        assert_eq!(report.intents_replayed, 1);
        assert!(!env.oss.exists(stale).unwrap(), "drop rolled forward");
        assert!(journal.is_empty());
    }
}
