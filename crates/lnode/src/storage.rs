//! The storage layer: SLIMSTORE's view of the object store (§III-B).
//!
//! Wraps an [`ObjectStore`] with the container store, recipe store and
//! version-manifest conventions. All state lives on OSS; the only in-process
//! state is the monotonic container-id allocator, which is recovered on open
//! as the numeric max over every parsed container key — live, replicated or
//! quarantined, so an id is never handed out twice even after its primary
//! is gone (zero-padding makes keys *usually* sort numerically, but
//! recovery must not depend on it — a 13-digit id sorts before any
//! 12-digit one).
//!
//! The handed-in store may be a healing wrapper (`slim_oss::RedundantStore`):
//! whole-object container reads then transparently reconstruct damaged
//! primaries from the redundancy plane. Integrity sweeps that must observe
//! the primary as stored bypass healing via `ObjectStore::get_raw`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use slim_oss::ObjectStore;
use slim_types::{
    crc, layout, ContainerId, ContainerMeta, FileId, Recipe, RecipeIndex, Result, SegmentRecipe,
    SlimError, VersionId, VersionManifest,
};

/// Shared handle to the storage layer. Cheap to clone.
#[derive(Clone)]
pub struct StorageLayer {
    oss: Arc<dyn ObjectStore>,
    next_container: Arc<AtomicU64>,
}

impl StorageLayer {
    /// Open the storage layer on `oss`, recovering the container-id
    /// allocator from the existing key space.
    pub fn open(oss: Arc<dyn ObjectStore>) -> Self {
        // Numeric max over *all* parsed ids, not the lexicographically last
        // key: once an id outgrows the 12-digit key padding it sorts before
        // shorter ids, and recovering from `.last()` would hand out a live
        // id again. Replicas and quarantined copies count too: container
        // data is write-once per id (the redundancy re-tier never re-reads
        // a listed data replica), which only holds if a deleted container's
        // id is not reused while a stale copy of it survives.
        let next_id = ["", layout::REPLICA_PREFIX, layout::QUARANTINE_PREFIX]
            .into_iter()
            .flat_map(|relocation| {
                oss.list(&format!("{relocation}{}", layout::CONTAINER_PREFIX))
                    .into_iter()
                    .filter_map(move |k| layout::parse_container_key(k.strip_prefix(relocation)?))
            })
            .map(|id| id.0)
            .max()
            .map(|max| max + 1)
            .unwrap_or(0);
        StorageLayer {
            oss,
            next_container: Arc::new(AtomicU64::new(next_id)),
        }
    }

    /// The underlying object store.
    pub fn oss(&self) -> &Arc<dyn ObjectStore> {
        &self.oss
    }

    /// Allocate the next container id (globally monotonic).
    pub fn allocate_container_id(&self) -> ContainerId {
        ContainerId(self.next_container.fetch_add(1, Ordering::SeqCst))
    }

    /// Persist a sealed container (data + metadata).
    ///
    /// Both objects carry a CRC32 trailer ([`crc::seal`]) so that corruption
    /// is detected on read rather than silently restored. The trailer sits
    /// *after* the payload, so chunk offsets recorded in recipes still address
    /// the data object directly and range reads stay trailer-free.
    pub fn put_container(&self, data: Bytes, meta: &ContainerMeta) -> Result<()> {
        self.oss
            .put(&layout::container_data(meta.id), crc::seal(&data))?;
        self.put_container_meta(meta)
    }

    /// Persist only a container's metadata (deletion marks etc.).
    pub fn put_container_meta(&self, meta: &ContainerMeta) -> Result<()> {
        self.oss
            .put(&layout::container_meta(meta.id), crc::seal(&meta.encode()))
    }

    /// Read a container's data object, verifying its CRC32 trailer.
    pub fn get_container_data(&self, id: ContainerId) -> Result<Bytes> {
        unseal_data(id, self.oss.get(&layout::container_data(id)))
    }

    /// Read a byte range of a container's data object.
    pub fn get_container_range(&self, id: ContainerId, start: u64, len: u64) -> Result<Bytes> {
        self.oss.get_range(&layout::container_data(id), start, len)
    }

    /// Read many containers' data objects in one batched OSS sweep.
    ///
    /// Results are in `ids` order, one per input, with the same error
    /// mapping as [`StorageLayer::get_container_data`].
    pub fn get_container_data_many(&self, ids: &[ContainerId]) -> Vec<Result<Bytes>> {
        let keys: Vec<String> = ids.iter().map(|id| layout::container_data(*id)).collect();
        let objects = self.oss.get_many(&keys);
        ids.iter()
            .zip(objects)
            .map(|(id, object)| unseal_data(*id, object))
            .collect()
    }

    /// Read many containers' metadata objects in one batched OSS sweep.
    ///
    /// Results are in `ids` order, one per input, with the same error
    /// mapping as [`StorageLayer::get_container_meta`].
    pub fn get_container_meta_many(&self, ids: &[ContainerId]) -> Vec<Result<ContainerMeta>> {
        let keys: Vec<String> = ids.iter().map(|id| layout::container_meta(*id)).collect();
        let objects = self.oss.get_many(&keys);
        ids.iter()
            .zip(objects)
            .map(|(id, object)| decode_meta(*id, object))
            .collect()
    }

    /// Read a container's metadata, verifying its CRC32 trailer.
    pub fn get_container_meta(&self, id: ContainerId) -> Result<ContainerMeta> {
        decode_meta(id, self.oss.get(&layout::container_meta(id)))
    }

    /// Whether a container still exists.
    pub fn container_exists(&self, id: ContainerId) -> Result<bool> {
        self.oss.exists(&layout::container_meta(id))
    }

    /// Delete both objects of a container (GC sweep).
    pub fn delete_container(&self, id: ContainerId) -> Result<()> {
        self.delete_containers(&[id])
    }

    /// Delete both objects of many containers in one batched OSS sweep.
    ///
    /// Returns the first error encountered (in key order); deletes are
    /// idempotent, so a partially-applied sweep can simply be retried.
    pub fn delete_containers(&self, ids: &[ContainerId]) -> Result<()> {
        let keys: Vec<String> = ids
            .iter()
            .flat_map(|id| [layout::container_data(*id), layout::container_meta(*id)])
            .collect();
        for result in self.oss.delete_many(&keys) {
            result?;
        }
        Ok(())
    }

    /// All container ids currently stored, ascending.
    pub fn list_containers(&self) -> Vec<ContainerId> {
        self.oss
            .list(layout::CONTAINER_PREFIX)
            .iter()
            .filter(|k| k.ends_with("/meta"))
            .filter_map(|k| layout::parse_container_key(k))
            .collect()
    }

    /// Persist a recipe and its recipe index; returns their keys.
    pub fn put_recipe(
        &self,
        file: &FileId,
        version: VersionId,
        recipe: &Recipe,
        index: &RecipeIndex,
    ) -> Result<(String, String)> {
        let (buf, _spans) = recipe.encode();
        let rkey = layout::recipe(file, version);
        let ikey = layout::recipe_index(file, version);
        self.oss.put(&rkey, buf)?;
        self.oss.put(&ikey, index.encode())?;
        Ok((rkey, ikey))
    }

    /// Read the full recipe of `file` at `version`.
    pub fn get_recipe(&self, file: &FileId, version: VersionId) -> Result<Recipe> {
        let buf = self.oss.get(&layout::recipe(file, version))?;
        Recipe::decode(&buf)
    }

    /// Read the recipe index of `file` at `version`.
    pub fn get_recipe_index(&self, file: &FileId, version: VersionId) -> Result<RecipeIndex> {
        let buf = self.oss.get(&layout::recipe_index(file, version))?;
        RecipeIndex::decode(&buf)
    }

    /// Fetch one segment recipe with a range read (§IV-A Step 2: prefetching
    /// a similar segment costs one small OSS request, not a recipe download).
    pub fn get_segment_recipe(
        &self,
        file: &FileId,
        version: VersionId,
        span: slim_types::recipe::SegmentSpan,
    ) -> Result<SegmentRecipe> {
        let buf = self
            .oss
            .get_range(&layout::recipe(file, version), span.offset, span.len)?;
        SegmentRecipe::decode_block(&buf)
    }

    /// Delete the recipe objects of `file` at `version`.
    pub fn delete_recipe(&self, file: &FileId, version: VersionId) -> Result<()> {
        self.oss.delete(&layout::recipe(file, version))?;
        self.oss.delete(&layout::recipe_index(file, version))
    }

    /// Persist a version manifest.
    pub fn put_manifest(&self, manifest: &VersionManifest) -> Result<()> {
        self.oss
            .put(&layout::version_manifest(manifest.id()), manifest.encode())
    }

    /// Read a version manifest.
    pub fn get_manifest(&self, version: VersionId) -> Result<VersionManifest> {
        let buf = self
            .oss
            .get(&layout::version_manifest(version))
            .map_err(|e| match e {
                SlimError::ObjectNotFound(_) => SlimError::VersionNotFound(version.0),
                other => other,
            })?;
        VersionManifest::decode(&buf)
    }

    /// Delete a version manifest.
    pub fn delete_manifest(&self, version: VersionId) -> Result<()> {
        self.oss.delete(&layout::version_manifest(version))
    }

    /// All stored versions, ascending.
    ///
    /// Sorted numerically after parsing: the listing order of the object
    /// store is lexicographic over padded keys, which agrees with numeric
    /// order only while every id fits the pad width. Version ids past the
    /// pad width (and FIFO collection, which deletes the *numerically*
    /// oldest versions) must not depend on that coincidence.
    pub fn list_versions(&self) -> Vec<VersionId> {
        let mut versions: Vec<VersionId> = self
            .oss
            .list(layout::VERSION_PREFIX)
            .iter()
            .filter_map(|k| k.strip_prefix(layout::VERSION_PREFIX)?.parse::<u64>().ok())
            .map(VersionId)
            .collect();
        versions.sort_unstable();
        versions
    }

    /// Total bytes stored in the container store (the paper's "occupied
    /// space").
    ///
    /// Errors (e.g. transient faults on a `len` probe) are propagated, not
    /// silently counted as zero: an under-reported figure would corrupt the
    /// space-saving curves without any visible failure.
    pub fn container_store_bytes(&self) -> Result<u64> {
        // Only available on the simulated OSS; a real deployment would track
        // this in billing metadata.
        self.oss_stored_bytes(layout::CONTAINER_PREFIX)
    }

    fn oss_stored_bytes(&self, prefix: &str) -> Result<u64> {
        let keys = self.oss.list(prefix);
        let mut total = 0u64;
        for result in self.oss.len_many(&keys) {
            total += result?.unwrap_or(0);
        }
        Ok(total)
    }
}

/// A fetched object of container `id`: a missing object means a missing
/// container.
fn fetched(id: ContainerId, object: Result<Bytes>) -> Result<Bytes> {
    object.map_err(|e| match e {
        SlimError::ObjectNotFound(_) => SlimError::ContainerMissing(id.0),
        other => other,
    })
}

/// The CRC-verified payload of a fetched container data object.
fn unseal_data(id: ContainerId, object: Result<Bytes>) -> Result<Bytes> {
    crc::unseal(&fetched(id, object)?, "container data")
}

/// The CRC-verified, decoded metadata of a fetched container meta object.
fn decode_meta(id: ContainerId, object: Result<Bytes>) -> Result<ContainerMeta> {
    ContainerMeta::decode(&crc::unseal(&fetched(id, object)?, "container meta")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::Oss;
    use slim_types::{ChunkRecord, ContainerBuilder, Fingerprint};

    fn fp(b: u8) -> Fingerprint {
        Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    fn layer() -> (Oss, StorageLayer) {
        let oss = Oss::in_memory();
        let layer = StorageLayer::open(Arc::new(oss.clone()));
        (oss, layer)
    }

    #[test]
    fn container_roundtrip() {
        let (_oss, s) = layer();
        let id = s.allocate_container_id();
        let mut b = ContainerBuilder::new(id, 1024);
        b.push(fp(1), &[1u8; 100]);
        b.push(fp(2), &[2u8; 50]);
        let (data, meta) = b.seal();
        s.put_container(data.clone(), &meta).unwrap();
        assert_eq!(s.get_container_data(id).unwrap(), data);
        assert_eq!(s.get_container_meta(id).unwrap(), meta);
        assert!(s.container_exists(id).unwrap());
        assert_eq!(s.list_containers(), vec![id]);
        assert_eq!(s.get_container_range(id, 100, 50).unwrap(), &[2u8; 50][..]);
        s.delete_container(id).unwrap();
        assert!(!s.container_exists(id).unwrap());
        assert!(matches!(
            s.get_container_data(id),
            Err(SlimError::ContainerMissing(_))
        ));
    }

    #[test]
    fn corrupted_container_objects_are_detected_on_read() {
        let (oss, s) = layer();
        let id = s.allocate_container_id();
        let mut b = ContainerBuilder::new(id, 1024);
        b.push(fp(5), &[7u8; 64]);
        let (data, meta) = b.seal();
        s.put_container(data, &meta).unwrap();
        for key in [layout::container_data(id), layout::container_meta(id)] {
            let mut buf = oss.get(&key).unwrap().to_vec();
            buf[0] ^= 0x01;
            oss.put(&key, Bytes::from(buf)).unwrap();
        }
        assert!(matches!(
            s.get_container_data(id),
            Err(SlimError::Corrupt { .. })
        ));
        assert!(matches!(
            s.get_container_meta(id),
            Err(SlimError::Corrupt { .. })
        ));
        assert!(matches!(
            s.get_container_data_many(&[id])[0],
            Err(SlimError::Corrupt { .. })
        ));
        assert!(matches!(
            s.get_container_meta_many(&[id])[0],
            Err(SlimError::Corrupt { .. })
        ));
    }

    #[test]
    fn id_allocator_recovers_after_reopen() {
        let (oss, s) = layer();
        let a = s.allocate_container_id();
        let mut b = ContainerBuilder::new(a, 64);
        b.push(fp(1), &[0u8; 10]);
        let (data, meta) = b.seal();
        s.put_container(data, &meta).unwrap();
        let s2 = StorageLayer::open(Arc::new(oss));
        let next = s2.allocate_container_id();
        assert!(next > a, "allocator must not reuse {a}");
    }

    #[test]
    fn id_allocator_never_reuses_an_id_with_a_surviving_copy() {
        // Container data is write-once per id: the redundancy re-tier trusts
        // a listed data replica unread. Reusing the id of a deleted
        // container whose replica (or quarantined copy) outlived it would
        // pair new bytes with a stale replica.
        for relocate in [layout::replica_key, layout::quarantine_key] {
            let (oss, s) = layer();
            let low = s.allocate_container_id();
            let high = s.allocate_container_id();
            for id in [low, high] {
                let mut b = ContainerBuilder::new(id, 64);
                b.push(fp(1), &[0u8; 10]);
                let (data, meta) = b.seal();
                s.put_container(data, &meta).unwrap();
            }
            let key = layout::container_data(high);
            oss.put(&relocate(&key), oss.get(&key).unwrap()).unwrap();
            s.delete_container(high).unwrap();

            let reopened = StorageLayer::open(Arc::new(oss));
            let next = reopened.allocate_container_id();
            assert!(next > high, "allocator reused {high:?} as {next:?}");
        }
    }

    #[test]
    fn recipe_roundtrip_and_segment_range_read() {
        let (_oss, s) = layer();
        let file = FileId::new("f");
        let v = VersionId(1);
        let recipe = Recipe {
            segments: vec![
                SegmentRecipe::new(vec![ChunkRecord::new(fp(1), ContainerId(0), 10, 0)]),
                SegmentRecipe::new(vec![ChunkRecord::new(fp(2), ContainerId(0), 20, 1)]),
            ],
        };
        let (_, spans) = recipe.encode();
        let mut index = RecipeIndex::new();
        index.push(slim_types::RecipeIndexEntry {
            sample_fp: fp(2),
            segment_idx: 1,
            span: spans[1],
        });
        s.put_recipe(&file, v, &recipe, &index).unwrap();
        assert_eq!(s.get_recipe(&file, v).unwrap(), recipe);
        let idx = s.get_recipe_index(&file, v).unwrap();
        assert_eq!(idx, index);
        let seg = s.get_segment_recipe(&file, v, spans[1]).unwrap();
        assert_eq!(seg, recipe.segments[1]);
        s.delete_recipe(&file, v).unwrap();
        assert!(s.get_recipe(&file, v).is_err());
    }

    #[test]
    fn manifest_roundtrip_and_listing() {
        let (_oss, s) = layer();
        let mut m = VersionManifest::new(VersionId(0));
        m.new_containers.push(ContainerId(1));
        s.put_manifest(&m).unwrap();
        let m2 = VersionManifest::new(VersionId(1));
        s.put_manifest(&m2).unwrap();
        assert_eq!(s.list_versions(), vec![VersionId(0), VersionId(1)]);
        assert_eq!(s.get_manifest(VersionId(0)).unwrap(), m);
        assert!(matches!(
            s.get_manifest(VersionId(9)),
            Err(SlimError::VersionNotFound(9))
        ));
        s.delete_manifest(VersionId(0)).unwrap();
        assert_eq!(s.list_versions(), vec![VersionId(1)]);
    }

    #[test]
    fn list_versions_sorts_numerically_beyond_pad_width() {
        let (_oss, s) = layer();
        // 8-digit pad: 100000000 lists lexicographically *before* 99999999
        // ("1…" < "9…"). The numeric sort must not inherit that order.
        for v in [99_999_999u64, 100_000_000, 3] {
            s.put_manifest(&VersionManifest::new(VersionId(v))).unwrap();
        }
        assert_eq!(
            s.list_versions(),
            vec![VersionId(3), VersionId(99_999_999), VersionId(100_000_000)]
        );
    }

    #[test]
    fn container_store_bytes_counts_data_and_meta() {
        let (_oss, s) = layer();
        assert_eq!(s.container_store_bytes().unwrap(), 0);
        let id = s.allocate_container_id();
        let mut b = ContainerBuilder::new(id, 1024);
        b.push(fp(3), &[0u8; 200]);
        let (data, meta) = b.seal();
        let expect =
            data.len() as u64 + meta.encode().len() as u64 + 2 * crc::CRC_TRAILER_LEN as u64;
        s.put_container(data, &meta).unwrap();
        assert_eq!(s.container_store_bytes().unwrap(), expect);
    }

    #[test]
    fn allocator_recovery_survives_padding_overflow() {
        // Regression: keys are zero-padded to 12 digits, so a 13-digit id
        // sorts lexicographically *before* any 12-digit id. Recovery via the
        // last listed key would resurrect a live id; numeric max must win.
        let oss = Oss::in_memory();
        for id in [999_999_999_999u64, 1_000_000_000_000u64] {
            oss.put(&layout::container_meta(ContainerId(id)), Bytes::new())
                .unwrap();
        }
        let s = StorageLayer::open(Arc::new(oss));
        let next = s.allocate_container_id();
        assert!(
            next.0 > 1_000_000_000_000,
            "allocator handed out live id {next:?}"
        );
    }

    #[test]
    fn container_store_bytes_surfaces_transient_faults() {
        // Regression: a transient fault during the sizing sweep used to be
        // swallowed (`len(k).unwrap_or(None)`), silently under-counting.
        let (oss, s) = layer();
        let id = s.allocate_container_id();
        let mut b = ContainerBuilder::new(id, 1024);
        b.push(fp(4), &[0u8; 100]);
        let (data, meta) = b.seal();
        s.put_container(data, &meta).unwrap();
        oss.inject_fault(slim_oss::FaultPlan::TransientProb {
            prefix: "containers/".into(),
            prob: 1.0,
            seed: 11,
        });
        let err = s.container_store_bytes().unwrap_err();
        assert!(err.is_retryable(), "expected transient error, got {err:?}");
        oss.clear_faults();
        assert!(s.container_store_bytes().unwrap() > 0);
    }
}
