//! Global reverse deduplication (§VI-A).
//!
//! Exact dedup, executed offline: every chunk in the containers a backup job
//! created is filtered against the global fingerprint index. A chunk already
//! stored in an **older** container is a duplicate the fast online path
//! missed; reverse dedup deletes the *old* copy — so the data layout of the
//! new version is preserved and the storage of old versions shrinks —
//! and repoints the global index at the new container.
//!
//! Cost controls from the paper:
//! * a resident bloom filter passes unique chunks without touching Rocks-OSS
//!   (built into [`slim_index::GlobalIndex`]);
//! * old-container metadata is cached ([`crate::meta_cache::MetaCache`]);
//! * deletion is deferred — chunks are only *marked* deleted; a container is
//!   physically rewritten once its deleted ratio exceeds the threshold
//!   (default 20 %), and deleted outright when nothing live remains.
//!
//! Crash safety: rewrites are **two-phase with fresh ids**. The surviving
//! chunks are written to a *new* container, the index flips to it, and only
//! then is the old object deleted — an in-place rewrite would have no intact
//! copy to fall back to if the overwrite were torn. Every destructive step
//! is preceded by a [`crate::journal`] intent so a killed pass either rolls
//! forward (new container intact) or back (old container still whole).

use std::collections::HashMap;

use slim_index::GlobalIndex;
use slim_lnode::StorageLayer;
use slim_types::{
    crc, layout, ContainerBuilder, ContainerId, ContainerMeta, Fingerprint, Result, SlimConfig,
};

use crate::journal::{Intent, Journal};
use crate::meta_cache::MetaCache;

/// Outcome of one reverse-deduplication pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReverseDedupStats {
    /// Chunks examined across the new containers.
    pub chunks_scanned: u64,
    /// Chunks the bloom filter passed as certainly-unique (no index lookup).
    pub bloom_skips: u64,
    /// Duplicate copies deleted from old containers.
    pub duplicates_removed: u64,
    /// Stale payload bytes those deletions made reclaimable.
    pub bytes_marked: u64,
    /// Containers physically rewritten (deleted ratio over threshold).
    pub containers_rewritten: u64,
    /// Containers deleted because nothing live remained.
    pub containers_deleted: u64,
    /// Bytes physically reclaimed by rewrites and deletions.
    pub bytes_reclaimed: u64,
}

/// Fingerprints whose authoritative copy moved, and where it lives now.
/// The G-node feeds this into the current version's recipe rewrite so the
/// *new* version never pays a relocation lookup (§VI-A keeps old versions on
/// the global-index path, but the latest version's recipes are improved in
/// place, like SCC's).
pub type RelocationMap = HashMap<Fingerprint, ContainerId>;

/// Run reverse deduplication over `new_containers` (the containers created
/// by the latest backup), in ascending id order.
pub fn reverse_dedup(
    storage: &StorageLayer,
    global: &GlobalIndex,
    meta_cache: &mut MetaCache,
    journal: &Journal,
    config: &SlimConfig,
    new_containers: &[ContainerId],
) -> Result<(ReverseDedupStats, RelocationMap)> {
    let mut stats = ReverseDedupStats::default();
    let mut ordered: Vec<ContainerId> = new_containers.to_vec();
    ordered.sort();
    let mut touched_old: Vec<ContainerId> = Vec::new();
    let mut relocations: RelocationMap = HashMap::new();

    // One batched sweep pre-loads every new container's metadata; the
    // per-container loop below then runs entirely against the cache.
    meta_cache.warm_up(&ordered);

    for &container in &ordered {
        let entries: Vec<_> = meta_cache
            .get(container)?
            .entries
            .iter()
            .filter(|e| !e.deleted)
            .copied()
            .collect();
        for entry in entries {
            stats.chunks_scanned += 1;
            // Bloom pre-filter: certainly-unique chunks skip the LSM lookup.
            if !global.may_contain(&entry.fp) {
                stats.bloom_skips += 1;
                global.insert(&entry.fp, container)?;
                continue;
            }
            match global.get(&entry.fp)? {
                None => {
                    global.insert(&entry.fp, container)?;
                }
                Some(current) if current == container => {}
                Some(old) if old < container => {
                    // Exact duplicate missed online: delete the old copy,
                    // keep the new-version layout intact.
                    let removed = meta_cache.update(old, |m| {
                        m.mark_deleted(&entry.fp)
                            .then(|| m.find(&entry.fp).map(|e| e.len as u64).unwrap_or(0))
                    })?;
                    if let Some(bytes) = removed {
                        stats.duplicates_removed += 1;
                        stats.bytes_marked += bytes;
                        touched_old.push(old);
                        relocations.insert(entry.fp, container);
                    }
                    global.relocate(&entry.fp, container)?;
                }
                Some(newer) => {
                    // Another (concurrent) job already stored this chunk in
                    // an even newer container: delete our copy instead.
                    let removed = meta_cache.update(container, |m| {
                        m.mark_deleted(&entry.fp).then(|| entry.len as u64)
                    })?;
                    if let Some(bytes) = removed {
                        stats.duplicates_removed += 1;
                        stats.bytes_marked += bytes;
                        touched_old.push(container);
                        relocations.insert(entry.fp, newer);
                    }
                }
            }
        }
    }

    // Intent first: the marks above become durable with the meta flush, so
    // the index flips must survive a crash before the global flush lands.
    let repoint_seq = if relocations.is_empty() {
        None
    } else {
        Some(journal.record(&Intent::RepointIndex {
            entries: relocations.iter().map(|(fp, id)| (*fp, *id)).collect(),
        })?)
    };

    // Deferred physical deletion: rewrite or drop heavily-deleted containers.
    touched_old.sort();
    touched_old.dedup();
    rewrite_containers(
        storage,
        global,
        meta_cache,
        journal,
        config.compression,
        config.container_rewrite_threshold,
        &touched_old,
        Some(&mut relocations),
        &mut stats,
    )?;
    if let Some(seq) = repoint_seq {
        journal.retire(seq)?;
    }
    Ok((stats, relocations))
}

/// Physically reclaim `candidates`: delete each container with nothing live
/// left, and rewrite without its deleted chunks each one whose deleted ratio
/// exceeds `threshold`. The one journaled two-phase rewrite primitive
/// (reverse dedup, SCC and vacuum all end in it), batched over the whole
/// candidate set:
///
/// 1. one batched data read for every container to rewrite;
/// 2. per rewrite, a `RewriteContainer` intent, then the survivors are built
///    and PUT under a **fresh id** and the global index flips to it (new
///    homes are added to `relocations`, for a caller that still has recipes
///    to repoint). A container that had earned a full replica hands the
///    tier down: the fresh one's replica is written from the bytes in hand,
///    because the old versions that lean on these chunks keep naming the
///    old id and would never lift the new one over the fan-in threshold;
/// 3. a `DropContainers` intent for the empty ones;
/// 4. **one** metadata-cache flush and **one** index flush — the caller's
///    buffered deletion marks and index flips become durable here too, also
///    when nothing is rewritten;
/// 5. one batched delete of the now-unreferenced old objects, and only then
///    are the intents retired.
///
/// A pass killed anywhere either rolls forward (new container intact) or
/// back (old container still whole). Recipes still naming an old id resolve
/// through the global-index fallback on the restore path. The caller bounds
/// memory: every container to rewrite is held in full at once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rewrite_containers(
    storage: &StorageLayer,
    global: &GlobalIndex,
    meta_cache: &mut MetaCache,
    journal: &Journal,
    compression: bool,
    threshold: f64,
    candidates: &[ContainerId],
    mut relocations: Option<&mut RelocationMap>,
    stats: &mut ReverseDedupStats,
) -> Result<()> {
    let mut dead: Vec<ContainerId> = Vec::new();
    let mut rewrites: Vec<(ContainerId, ContainerMeta)> = Vec::new();
    for &id in candidates {
        let meta = meta_cache.get(id)?;
        if meta.live_chunks() == 0 {
            stats.containers_deleted += 1;
            stats.bytes_reclaimed += meta.data_len as u64;
            meta_cache.forget(id);
            dead.push(id);
        } else if meta.deleted_ratio() > threshold {
            rewrites.push((id, meta.clone()));
        }
    }

    let mut seqs: Vec<u64> = Vec::new();
    let rewrite_ids: Vec<ContainerId> = rewrites.iter().map(|(id, _)| *id).collect();
    let mut doomed: Vec<ContainerId> = Vec::new();
    for ((old, meta), data) in rewrites
        .iter()
        .zip(storage.get_container_data_many(&rewrite_ids))
    {
        let data = data?;
        let new_id = storage.allocate_container_id();
        seqs.push(journal.record(&Intent::RewriteContainer {
            old: *old,
            new: new_id,
        })?);
        let mut builder = ContainerBuilder::new(new_id, meta.live_raw_bytes() as usize)
            .with_compression(compression);
        for entry in meta.entries.iter().filter(|e| !e.deleted) {
            // Decompress through the validated accessor and recompress under
            // the current knob: rewrites are also the migration path between
            // compressed and uncompressed repos.
            builder.push(entry.fp, &entry.payload_from(&data)?);
        }
        let (new_data, new_meta) = builder.seal();
        storage.put_container(new_data.clone(), &new_meta)?;
        let oss = storage.oss();
        if oss.exists(&layout::replica_key(&layout::container_data(*old)))? {
            let heir = layout::replica_key(&layout::container_data(new_id));
            oss.put(&heir, crc::seal(&new_data))?;
        }
        for entry in new_meta.entries.iter() {
            global.relocate(&entry.fp, new_id)?;
            if let Some(relocations) = relocations.as_deref_mut() {
                relocations.insert(entry.fp, new_id);
            }
        }
        stats.containers_rewritten += 1;
        // Saturating: rewriting a compressed container with compression now
        // off legitimately grows the data object.
        stats.bytes_reclaimed += (meta.data_len as u64).saturating_sub(new_meta.data_len as u64);
        meta_cache.put(new_meta);
        meta_cache.forget(*old);
        doomed.push(*old);
    }

    if !dead.is_empty() {
        seqs.push(journal.record(&Intent::DropContainers { ids: dead.clone() })?);
    }

    // Commit: marks and index flips become durable, then the now-
    // unreferenced old objects go, then the journal's promise is discharged.
    meta_cache.flush()?;
    global.flush()?;
    doomed.extend(dead);
    storage.delete_containers(&doomed)?;
    for seq in seqs {
        journal.retire(seq)?;
    }
    Ok(())
}

/// Convenience used by tests and space accounting: live bytes across a set
/// of containers.
pub fn live_bytes(meta_cache: &mut MetaCache, containers: &[ContainerId]) -> Result<u64> {
    let mut total = 0;
    for &id in containers {
        total += meta_cache.get(id)?.live_bytes();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::rocks::RocksConfig;
    use slim_oss::Oss;
    use slim_types::Fingerprint;
    use std::sync::Arc;

    fn fp(b: u8) -> Fingerprint {
        Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    struct Env {
        storage: StorageLayer,
        global: GlobalIndex,
        journal: Journal,
        config: SlimConfig,
    }

    fn setup() -> Env {
        let oss = Oss::in_memory();
        let storage = StorageLayer::open(Arc::new(oss.clone()));
        let global =
            GlobalIndex::open_with(Arc::new(oss.clone()), RocksConfig::small_for_tests(), 1024)
                .unwrap();
        Env {
            storage,
            global,
            journal: Journal::open(Arc::new(oss)),
            config: SlimConfig::small_for_tests(),
        }
    }

    fn run(
        env: &Env,
        cache: &mut MetaCache,
        new: &[ContainerId],
    ) -> (ReverseDedupStats, RelocationMap) {
        let out = reverse_dedup(
            &env.storage,
            &env.global,
            cache,
            &env.journal,
            &env.config,
            new,
        )
        .unwrap();
        assert!(
            env.journal.is_empty(),
            "a completed pass must retire all of its intents"
        );
        out
    }

    fn make_container(storage: &StorageLayer, chunks: &[(u8, usize)]) -> ContainerId {
        let id = storage.allocate_container_id();
        let mut b = ContainerBuilder::new(id, 1 << 20);
        for &(tag, len) in chunks {
            b.push(fp(tag), &vec![tag; len]);
        }
        let (data, meta) = b.seal();
        storage.put_container(data, &meta).unwrap();
        id
    }

    #[test]
    fn unique_chunks_enter_global_index() {
        let env = setup();
        let c = make_container(&env.storage, &[(1, 100), (2, 100)]);
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let (stats, _) = run(&env, &mut cache, &[c]);
        assert_eq!(stats.chunks_scanned, 2);
        assert_eq!(stats.duplicates_removed, 0);
        assert_eq!(env.global.get(&fp(1)).unwrap(), Some(c));
        assert_eq!(env.global.get(&fp(2)).unwrap(), Some(c));
    }

    #[test]
    fn duplicate_removed_from_old_container() {
        let env = setup();
        // Six chunks: losing one (1/6) stays under the 20 % rewrite
        // threshold, so the old container keeps its id.
        let chunks: Vec<(u8, usize)> = (1..=6).map(|tag| (tag, 100)).collect();
        let old = make_container(&env.storage, &chunks);
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let _ = run(&env, &mut cache, &[old]);
        // A new container re-stores chunk 2 (missed duplicate).
        let new = make_container(&env.storage, &[(2, 100), (7, 100)]);
        let (stats, _) = run(&env, &mut cache, &[new]);
        assert_eq!(stats.duplicates_removed, 1);
        assert_eq!(stats.bytes_marked, 100);
        // Old copy marked deleted; index points at the new container.
        let old_meta = env.storage.get_container_meta(old).unwrap();
        assert!(old_meta.find_live(&fp(2)).is_none());
        assert!(old_meta.find_live(&fp(1)).is_some());
        assert_eq!(env.global.get(&fp(2)).unwrap(), Some(new));
        // New container untouched.
        let new_meta = env.storage.get_container_meta(new).unwrap();
        assert!(new_meta.find_live(&fp(2)).is_some());
    }

    #[test]
    fn heavy_deletion_triggers_two_phase_rewrite() {
        let env = setup();
        let old = make_container(&env.storage, &[(1, 100), (2, 100), (3, 100)]);
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let _ = run(&env, &mut cache, &[old]);
        // Re-store two of the three chunks: 2/3 deleted > 20% threshold.
        let new = make_container(&env.storage, &[(1, 100), (2, 100)]);
        let (stats, relocations) = run(&env, &mut cache, &[new]);
        assert_eq!(stats.duplicates_removed, 2);
        assert_eq!(stats.containers_rewritten, 1);
        assert!(stats.bytes_reclaimed >= 200);
        // The survivor (chunk 3) moved to a fresh container; the old object
        // is gone and both the index and the relocation map flipped.
        let home = env.global.get(&fp(3)).unwrap().expect("chunk 3 indexed");
        assert_ne!(home, old, "rewrite must use a fresh container id");
        assert!(!env.storage.container_exists(old).unwrap());
        assert_eq!(relocations.get(&fp(3)), Some(&home));
        let meta = env.storage.get_container_meta(home).unwrap();
        assert_eq!(meta.total_chunks(), 1);
        assert!(meta.find_live(&fp(3)).is_some());
        let data = env.storage.get_container_data(home).unwrap();
        assert_eq!(data.len(), 100);
    }

    #[test]
    fn rewrite_recompresses_under_current_knob() {
        // An uncompressed (pre-upgrade) container whose survivors are
        // rewritten with compression on: the rewrite is the migration path.
        let mut env = setup();
        env.config.compression = true;
        let old = make_container(&env.storage, &[(1, 400), (2, 400), (3, 400)]);
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let _ = run(&env, &mut cache, &[old]);
        let new = make_container(&env.storage, &[(1, 400), (2, 400)]);
        let (stats, _) = run(&env, &mut cache, &[new]);
        assert_eq!(stats.containers_rewritten, 1);
        let home = env.global.get(&fp(3)).unwrap().expect("chunk 3 indexed");
        let meta = env.storage.get_container_meta(home).unwrap();
        let entry = *meta.find_live(&fp(3)).unwrap();
        assert!(entry.is_compressed(), "constant bytes must compress");
        assert_eq!(entry.raw_len, 400);
        let data = env.storage.get_container_data(home).unwrap();
        assert_eq!(data.len(), meta.data_len as usize);
        assert!(data.len() < 400, "rewritten object shrinks");
        assert_eq!(entry.payload_from(&data).unwrap(), vec![3u8; 400]);
    }

    #[test]
    fn compression_off_rewrite_decompresses_without_underflow() {
        // The inverse migration: a compressed container rewritten with the
        // knob off. The survivor grows past the old (compressed) data_len,
        // so `bytes_reclaimed` must saturate instead of underflowing.
        let env = setup();
        let id = env.storage.allocate_container_id();
        let mut b = ContainerBuilder::new(id, 1 << 20).with_compression(true);
        for tag in 1u8..=3 {
            let payload = vec![tag; 300];
            b.push(fp(tag), &payload);
        }
        let (data, meta) = b.seal();
        assert!((meta.data_len as usize) < 900, "seed container compressed");
        env.storage.put_container(data, &meta).unwrap();
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let _ = run(&env, &mut cache, &[id]);
        let new = make_container(&env.storage, &[(1, 300), (2, 300)]);
        let (stats, _) = run(&env, &mut cache, &[new]);
        assert_eq!(stats.containers_rewritten, 1);
        let home = env.global.get(&fp(3)).unwrap().expect("chunk 3 indexed");
        let meta = env.storage.get_container_meta(home).unwrap();
        let entry = *meta.find_live(&fp(3)).unwrap();
        assert!(!entry.is_compressed(), "knob off stores raw");
        let data = env.storage.get_container_data(home).unwrap();
        assert_eq!(entry.payload_from(&data).unwrap(), vec![3u8; 300]);
    }

    #[test]
    fn fully_duplicated_container_is_deleted() {
        let env = setup();
        let old = make_container(&env.storage, &[(1, 50), (2, 50)]);
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let _ = run(&env, &mut cache, &[old]);
        let new = make_container(&env.storage, &[(1, 50), (2, 50)]);
        let (stats, _) = run(&env, &mut cache, &[new]);
        assert_eq!(stats.containers_deleted, 1);
        assert!(!env.storage.container_exists(old).unwrap());
        assert_eq!(env.global.get(&fp(1)).unwrap(), Some(new));
    }

    #[test]
    fn idempotent_on_repeat() {
        let env = setup();
        let c = make_container(&env.storage, &[(7, 64)]);
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let (s1, _) = run(&env, &mut cache, &[c]);
        let (s2, _) = run(&env, &mut cache, &[c]);
        assert_eq!(s1.duplicates_removed, 0);
        assert_eq!(s2.duplicates_removed, 0, "self-match must not delete");
        assert_eq!(env.global.get(&fp(7)).unwrap(), Some(c));
    }

    #[test]
    fn duplicate_within_new_batch_keeps_newest() {
        let env = setup();
        let a = make_container(&env.storage, &[(5, 40)]);
        let b = make_container(&env.storage, &[(5, 40), (6, 40)]);
        let mut cache = MetaCache::new(env.storage.clone(), 8);
        let (stats, _) = run(&env, &mut cache, &[a, b]);
        assert_eq!(stats.duplicates_removed, 1);
        assert_eq!(env.global.get(&fp(5)).unwrap(), Some(b));
        // Container a lost its only chunk and was deleted.
        assert!(!env.storage.container_exists(a).unwrap());
    }
}
