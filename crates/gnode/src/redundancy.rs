//! Dedup-aware redundancy policy and the offline repair sweep.
//!
//! The OSS-side half of the redundancy plane ([`slim_oss::RedundantStore`])
//! only *consumes* protection copies; this module is the half that decides
//! and writes them. Policy is dedup-aware, following FASTEN's observation
//! that deduplication concentrates risk: the containers worth the cost of a
//! full replica are exactly those holding many authoritative chunk copies
//! (live global-index entries), because every version that deduplicated
//! against them depends on that one object. Containers below the threshold
//! get cheaper XOR parity-group protection; container *metadata* objects are
//! always replicated — they are tiny, mutate in place (deletion marks), and
//! parity over mutable members would go stale.
//!
//! The re-tier pass runs at the end of every maintenance cycle, after
//! reverse dedup / SCC have settled the cycle's rewrites:
//!
//! 1. compute desired tiers from [`slim_index::GlobalIndex::reference_counts`];
//! 2. keep every still-valid parity group, and keep any group or replica
//!    whose member is currently damaged (it is a repair source);
//! 3. seal new parity groups over uncovered members (parity block first,
//!    CRC-sealed manifest last — the manifest PUT is the commit point);
//! 4. copy the data objects that have no replica yet (container data is
//!    write-once per key, so a listed data replica is never re-read) and
//!    refresh metadata replicas whose primary moved on;
//! 5. journal an idempotent [`Intent::DropObjects`] for every obsolete
//!    protection object, then delete — a crash between record and delete
//!    rolls forward on recovery.
//!
//! Additions are idempotent byte-identical PUTs and removals are journaled,
//! so a kill at any step leaves a plane the next cycle converges from.

use std::collections::{BTreeSet, HashMap, HashSet};

use slim_index::GlobalIndex;
use slim_lnode::StorageLayer;
use slim_oss::{object_state, reconstruct_object, ObjectState, ObjectStore};
use slim_types::redundancy::{parity_of, GroupMember};
use slim_types::{crc, layout, ContainerId, ParityGroup, Result, SlimConfig, SlimError};

use crate::journal::{Intent, Journal};

/// Outcome of one re-tier pass over the redundancy plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedundancyStats {
    /// Container data objects in the replica tier after the pass.
    pub replica_tier: u64,
    /// Container data objects covered by a parity group after the pass.
    pub parity_tier: u64,
    /// Replica objects written (new replicas + refreshed metadata).
    pub replicas_written: u64,
    /// Primary objects the pass fetched in full: every metadata primary
    /// (compared with its replica each pass) plus the data objects that
    /// gained a replica or a parity group. The data share is the pass's
    /// O(Δ) cost.
    pub primaries_read: u64,
    /// Parity groups sealed by this pass.
    pub parity_groups_sealed: u64,
    /// Obsolete redundancy objects dropped (journaled).
    pub objects_dropped: u64,
}

/// Outcome of a repair sweep over quarantined containers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Containers whose primaries needed and received reconstruction.
    pub containers_repaired: u64,
    /// Containers with a damaged primary and no usable reconstruction
    /// source — still quarantined, honestly lost.
    pub containers_unrepairable: u64,
    /// Primary objects rewritten from a reconstruction.
    pub objects_rewritten: u64,
    /// Global-index entries re-pointed at revived containers.
    pub index_entries_restored: u64,
    /// Quarantined objects whose primary is whole again (eligible for
    /// `scrub --purge`).
    pub quarantine_released: u64,
}

/// Outcome of a quarantine purge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// Quarantined objects deleted.
    pub objects_purged: u64,
    /// Quarantined objects kept (primary still damaged and purge not
    /// forced).
    pub objects_kept: u64,
}

/// Metadata replicas compared per batched replica-side read.
const META_COMPARE_BATCH: usize = 64;

/// Re-tier the redundancy plane to match the current dedup state (see the
/// module docs for the pass structure).
pub fn update_redundancy(
    storage: &StorageLayer,
    global: &GlobalIndex,
    journal: &Journal,
    config: &SlimConfig,
) -> Result<RedundancyStats> {
    let oss = storage.oss();
    let mut stats = RedundancyStats::default();
    // Damaged in a way the plane may still have to repair: present but
    // corrupt, or missing with a quarantined copy parked (missing with no
    // quarantined copy is legitimate deletion).
    let needs_repair_source = |key: &str| -> Result<bool> {
        Ok(match object_state(oss.as_ref(), key)? {
            ObjectState::Intact(_) => false,
            ObjectState::Corrupt => true,
            ObjectState::Missing => oss.exists(&layout::quarantine_key(key))?,
        })
    };

    let mut ids = storage.list_containers();
    ids.sort();
    let counts = global.reference_counts()?;

    // Desired tiers. Metadata objects of every live container are always
    // replicated; data objects split by reference count.
    let mut desired_replicas: BTreeSet<String> =
        ids.iter().map(|&id| layout::container_meta(id)).collect();
    let mut parity_keys: BTreeSet<String> = BTreeSet::new();
    for &id in &ids {
        let refs = counts.get(&id).copied().unwrap_or(0);
        if refs >= config.redundancy_replica_refs {
            desired_replicas.insert(layout::container_data(id));
        } else {
            parity_keys.insert(layout::container_data(id));
        }
    }

    let mut drop_keys: Vec<String> = Vec::new();

    // Existing parity groups: keep the still-valid and the still-needed.
    let mut covered: HashSet<String> = HashSet::new();
    let mut next_gid = 0u64;
    for gkey in oss.list(layout::PARITY_GROUP_PREFIX) {
        let Some(gid) = layout::parse_parity_group_key(&gkey) else {
            continue;
        };
        next_gid = next_gid.max(gid + 1);
        let group = match oss.get_raw(&gkey).map(|buf| ParityGroup::decode(&buf)) {
            Ok(Ok(group)) => group,
            // A corrupt manifest is useless as a repair source: drop it and
            // its parity block.
            Ok(Err(_)) => {
                drop_keys.push(gkey);
                drop_keys.push(layout::parity_data(gid));
                continue;
            }
            Err(e) => return Err(e),
        };
        let valid = group
            .members
            .iter()
            .all(|m| parity_keys.contains(&m.key) && !covered.contains(&m.key));
        let mut keep = valid;
        if !keep {
            // Membership is obsolete, but the group must survive while any
            // member is damaged — it may be the only reconstruction source.
            for m in &group.members {
                if needs_repair_source(&m.key)? {
                    keep = true;
                    break;
                }
            }
        }
        if keep {
            covered.extend(group.members.iter().map(|m| m.key.clone()));
        } else {
            drop_keys.push(gkey);
            drop_keys.push(layout::parity_data(gid));
        }
    }

    // Seal new groups over uncovered parity-tier members. Parity block
    // first, manifest last: an unreferenced parity block is invisible, so
    // the manifest PUT is the commit point.
    let uncovered: Vec<&String> = parity_keys
        .iter()
        .filter(|k| !covered.contains(*k))
        .collect();
    for chunk in uncovered.chunks(config.parity_group_size.max(1)) {
        let mut members: Vec<(String, bytes::Bytes)> = Vec::with_capacity(chunk.len());
        for key in chunk {
            // Damage is never sealed into a group: a skipped member is
            // grouped by a later cycle, after repair.
            stats.primaries_read += 1;
            if let ObjectState::Intact(buf) = object_state(oss.as_ref(), key)? {
                members.push(((*key).clone(), buf));
            }
        }
        if members.is_empty() {
            continue;
        }
        let gid = next_gid;
        next_gid += 1;
        let parity = parity_of(members.iter().map(|(_, b)| b.as_ref()));
        oss.put(&layout::parity_data(gid), crc::seal(&parity))?;
        let manifest = ParityGroup {
            id: gid,
            members: members
                .iter()
                .map(|(key, buf)| GroupMember {
                    key: key.clone(),
                    len: buf.len() as u64,
                })
                .collect(),
        };
        oss.put(&layout::parity_group_manifest(gid), manifest.encode())?;
        covered.extend(members.into_iter().map(|(key, _)| key));
        stats.parity_groups_sealed += 1;
    }

    // Replicas. Container data is write-once per key — every rewrite takes
    // a fresh id and ids are never reused (`StorageLayer::open`) — so a
    // listed data replica is current by construction and is neither read
    // nor compared; only containers without one are fetched, verified and
    // copied. Rot inside a replica is `GNode::verify_checksums`' to find: it
    // drops the replica, and the next pass lands here. Metadata mutates in
    // place (deletion marks), so its replica is compared every pass and
    // refreshed when the primary's bytes moved on.
    let existing_replicas: BTreeSet<String> =
        oss.list(layout::REPLICA_PREFIX).into_iter().collect();
    let (data_keys, meta_keys): (Vec<&String>, Vec<&String>) = desired_replicas
        .iter()
        .partition(|key| key.ends_with("/data"));
    for original in &data_keys {
        let rkey = layout::replica_key(original);
        if existing_replicas.contains(&rkey) {
            continue;
        }
        stats.primaries_read += 1;
        if let ObjectState::Intact(primary) = object_state(oss.as_ref(), original)? {
            oss.put(&rkey, primary)?;
            stats.replicas_written += 1;
        }
    }
    for batch in meta_keys.chunks(META_COMPARE_BATCH) {
        // Replica keys are not protected keys, so this batch is a raw read.
        let listed: Vec<String> = batch
            .iter()
            .map(|original| layout::replica_key(original))
            .filter(|rkey| existing_replicas.contains(rkey))
            .collect();
        let mut current: HashMap<&str, bytes::Bytes> = HashMap::with_capacity(listed.len());
        for (rkey, replica) in listed.iter().zip(oss.get_many(&listed)) {
            match replica {
                Ok(buf) => {
                    current.insert(rkey, buf);
                }
                Err(SlimError::ObjectNotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        for original in batch {
            stats.primaries_read += 1;
            let ObjectState::Intact(primary) = object_state(oss.as_ref(), original)? else {
                continue;
            };
            let rkey = layout::replica_key(original);
            if current.get(rkey.as_str()) != Some(&primary) {
                oss.put(&rkey, primary)?;
                stats.replicas_written += 1;
            }
        }
    }

    // Obsolete replicas: dropped only once their primary is whole again (or
    // legitimately gone) — a demoted-but-damaged container keeps its
    // replica as the repair source.
    for rkey in &existing_replicas {
        let Some(original) = layout::replica_original(rkey) else {
            continue;
        };
        if desired_replicas.contains(original) {
            continue;
        }
        if !needs_repair_source(original)? {
            drop_keys.push(rkey.clone());
        }
    }

    stats.objects_dropped = drop_keys.len() as u64;
    drop_objects(oss.as_ref(), journal, &drop_keys)?;

    stats.replica_tier = data_keys.len() as u64;
    stats.parity_tier = parity_keys.iter().filter(|k| covered.contains(*k)).count() as u64;
    Ok(stats)
}

/// Journaled two-phase drop of redundancy-plane objects: record the
/// idempotent intent, delete, then retire. A crash after the record rolls
/// the deletions forward on recovery.
fn drop_objects(oss: &dyn ObjectStore, journal: &Journal, keys: &[String]) -> Result<()> {
    if keys.is_empty() {
        return Ok(());
    }
    let seq = journal.record(&Intent::DropObjects {
        keys: keys.to_vec(),
    })?;
    for res in oss.delete_many(keys) {
        res?;
    }
    journal.retire(seq)
}

/// CRC-check every replica and drop the ones that fail, so the next re-tier
/// rewrites them from the verified primary (the re-tier itself trusts a
/// listed data replica without reading it). Returns the number dropped.
pub(crate) fn drop_rotten_replicas(oss: &dyn ObjectStore, journal: &Journal) -> Result<u64> {
    let mut rotten: Vec<String> = Vec::new();
    for rkey in oss.list(layout::REPLICA_PREFIX) {
        if object_state(oss, &rkey)? == ObjectState::Corrupt {
            rotten.push(rkey);
        }
    }
    drop_objects(oss, journal, &rotten)?;
    Ok(rotten.len() as u64)
}

/// Distinct containers with objects parked under the quarantine prefix.
fn quarantined_containers(oss: &dyn ObjectStore) -> Vec<ContainerId> {
    let mut out: BTreeSet<ContainerId> = BTreeSet::new();
    for key in oss.list(layout::QUARANTINE_PREFIX) {
        if let Some(original) = key.strip_prefix(layout::QUARANTINE_PREFIX) {
            if let Some(id) = layout::parse_container_key(original) {
                out.insert(id);
            }
        }
    }
    out.into_iter().collect()
}

/// Reconstruct every repairable quarantined container and re-point the
/// global index at the revived copies. Quarantined copies are *not*
/// deleted — that is `purge_quarantine`'s job, gated on the primary being
/// whole.
pub fn repair_quarantined(storage: &StorageLayer, global: &GlobalIndex) -> Result<RepairReport> {
    let oss = storage.oss();
    let mut report = RepairReport::default();
    for id in quarantined_containers(oss.as_ref()) {
        // Gather first, commit second: a container whose metadata is
        // reconstructible but whose data is lost must stay fully
        // quarantined, not be half-restored.
        let mut pending: Vec<(String, bytes::Bytes)> = Vec::new();
        let mut whole = true;
        for key in [layout::container_data(id), layout::container_meta(id)] {
            if matches!(object_state(oss.as_ref(), &key)?, ObjectState::Intact(_)) {
                continue;
            }
            match reconstruct_object(oss.as_ref(), &key)? {
                Some((bytes, _)) => pending.push((key, bytes)),
                None => whole = false,
            }
        }
        if !whole {
            report.containers_unrepairable += 1;
            continue;
        }
        let needed_repair = !pending.is_empty();
        for (key, bytes) in pending {
            // Idempotent byte-identical rewrite: a kill between the two
            // object rewrites re-runs cleanly.
            oss.put(&key, bytes)?;
            report.objects_rewritten += 1;
        }
        // Re-point the index: entries for this container's live chunks were
        // removed at quarantine time; restore any that no newer container
        // claimed meanwhile (insert-if-absent keeps the reverse-dedup
        // "newest copy wins" invariant).
        let meta = storage.get_container_meta(id)?;
        for entry in meta.entries.iter().filter(|e| !e.deleted) {
            if global.get(&entry.fp)?.is_none() {
                global.insert(&entry.fp, id)?;
                report.index_entries_restored += 1;
            }
        }
        if needed_repair {
            report.containers_repaired += 1;
        }
    }
    global.flush()?;

    // Quarantined objects whose primary is whole again are released for
    // purging.
    for key in oss.list(layout::QUARANTINE_PREFIX) {
        let Some(original) = key.strip_prefix(layout::QUARANTINE_PREFIX) else {
            continue;
        };
        if layout::parse_container_key(original).is_some()
            && matches!(
                object_state(oss.as_ref(), original)?,
                ObjectState::Intact(_)
            )
        {
            report.quarantine_released += 1;
        }
    }
    Ok(report)
}

/// Split the quarantined containers into `(repairable, lost)` using
/// redundancy-plane membership: a container is repairable when every one of
/// its damaged objects has a CRC-verified reconstruction source.
pub fn classify_quarantine(oss: &dyn ObjectStore) -> Result<(u64, u64)> {
    let mut repairable = 0u64;
    let mut lost = 0u64;
    for id in quarantined_containers(oss) {
        let mut ok = true;
        for key in [layout::container_data(id), layout::container_meta(id)] {
            if matches!(object_state(oss, &key)?, ObjectState::Intact(_)) {
                continue;
            }
            if reconstruct_object(oss, &key)?.is_none() {
                ok = false;
                break;
            }
        }
        if ok {
            repairable += 1;
        } else {
            lost += 1;
        }
    }
    Ok((repairable, lost))
}

/// Delete quarantined objects. Without `force`, an object is purged only
/// when its primary is whole again (successful repair); `force` discards
/// everything, including honestly-lost forensic copies.
pub fn purge_quarantine(oss: &dyn ObjectStore, force: bool) -> Result<PurgeReport> {
    let mut report = PurgeReport::default();
    for key in oss.list(layout::QUARANTINE_PREFIX) {
        let Some(original) = key.strip_prefix(layout::QUARANTINE_PREFIX) else {
            continue;
        };
        if force || matches!(object_state(oss, original)?, ObjectState::Intact(_)) {
            oss.delete(&key)?;
            report.objects_purged += 1;
        } else {
            report.objects_kept += 1;
        }
    }
    Ok(report)
}
