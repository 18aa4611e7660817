//! Version fan-in: how many retained versions lean on each container.
//!
//! Deduplication concentrates risk in the few containers many *versions*
//! name (FASTEN, SEARS), so that count — not how many chunks a container
//! happens to hold — is what the redundancy plane tiers by. It is a pure
//! function of durable state: each version's manifest carries the set of
//! containers its recipes name (`VersionManifest::referenced_containers`,
//! recorded by `settle_version` once SCC has rewritten the recipes), and a
//! container's fan-in is the number of retained manifests naming it. There
//! is no counter object to keep in step: a retention sweep lowers fan-in by
//! deleting a manifest, and a re-run cycle rewrites the same set.
//!
//! The sets are exactly what the recipes name and are never edited
//! afterwards, so the Mark phase can take the previous version's from its
//! manifest and garbage marking behaves as if it had re-read the recipes. A
//! G-node rewrite (reverse dedup, SCC, vacuum) moves a container's live
//! chunks under a fresh id while old versions' recipes keep naming the old
//! one; the successor therefore does not inherit a *count* but the *tier*
//! (`reverse_dedup::rewrite_containers` hands a replica down).

use std::collections::{BTreeSet, HashMap};

use slim_lnode::StorageLayer;
use slim_types::{layout, ContainerId, Result, VersionId, VersionManifest};

/// Every container a version's recipes name: one pass over the recipes.
pub(crate) fn recipe_containers(
    storage: &StorageLayer,
    manifest: &VersionManifest,
) -> Result<BTreeSet<ContainerId>> {
    let mut refs = BTreeSet::new();
    for file in &manifest.files {
        let recipe = storage.get_recipe(&file.file, manifest.id())?;
        refs.extend(recipe.records().map(|r| r.container_id));
    }
    Ok(refs)
}

/// Make `manifest` carry its referenced set. A manifest no cycle has
/// settled (or one written before the set existed) derives it from its
/// recipes, once: returns whether the caller has a changed manifest to
/// persist.
pub(crate) fn ensure_referenced(
    storage: &StorageLayer,
    manifest: &mut VersionManifest,
) -> Result<bool> {
    if !manifest.referenced_containers.is_empty() {
        return Ok(false);
    }
    manifest.referenced_containers = recipe_containers(storage, manifest)?.into_iter().collect();
    Ok(!manifest.referenced_containers.is_empty())
}

/// Version fan-in of every container some retained version names: one
/// listing and one batched read of the manifests (they are not protected
/// keys, so the batch is raw).
pub fn version_fan_in(storage: &StorageLayer) -> Result<HashMap<ContainerId, u64>> {
    let keys: Vec<String> = storage
        .list_versions()
        .into_iter()
        .map(layout::version_manifest)
        .collect();
    let mut fan_in: HashMap<ContainerId, u64> = HashMap::new();
    for buf in storage.oss().get_many(&keys) {
        let mut manifest = VersionManifest::decode(&buf?)?;
        if ensure_referenced(storage, &mut manifest)? {
            storage.put_manifest(&manifest)?;
        }
        for id in &manifest.referenced_containers {
            *fan_in.entry(*id).or_insert(0) += 1;
        }
    }
    Ok(fan_in)
}

/// Settle `version` at the end of its cycle's rewrites: record the
/// containers its (SCC-rewritten) recipes name and associate the sparse
/// containers SCC compacted as garbage-on-delete (§VI-B), in one manifest
/// write.
pub(crate) fn settle_version(
    storage: &StorageLayer,
    version: VersionId,
    sparse: &[ContainerId],
    referenced: &BTreeSet<ContainerId>,
) -> Result<()> {
    let mut manifest = storage.get_manifest(version)?;
    let before = manifest.clone();
    for &c in sparse {
        if !manifest.garbage_on_delete.contains(&c) {
            manifest.garbage_on_delete.push(c);
        }
    }
    manifest.referenced_containers = referenced.iter().copied().collect();
    if manifest == before {
        return Ok(());
    }
    storage.put_manifest(&manifest)
}
