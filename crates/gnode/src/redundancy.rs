//! Dedup-aware redundancy policy and the offline repair sweep.
//!
//! The OSS-side half of the redundancy plane ([`slim_oss::RedundantStore`])
//! only *consumes* protection copies; this module is the half that decides
//! and writes them. Policy is dedup-aware, following FASTEN's observation
//! that deduplication concentrates risk: the containers worth the cost of a
//! full replica are exactly those many retained *versions* lean on
//! ([`crate::fanin`]: version fan-in at or above
//! `SlimConfig::redundancy_replica_versions`), because every one of those
//! versions is lost with that one object. Containers below the threshold
//! get cheaper XOR parity-group protection; container *metadata* objects are
//! always replicated — they are tiny, mutate in place (deletion marks), and
//! parity over mutable members would go stale.
//!
//! The re-tier pass runs at the end of every maintenance cycle, after
//! reverse dedup / SCC have settled the cycle's rewrites:
//!
//! 1. compute desired tiers from the retained manifests' referenced sets;
//!    promotion is one-way — a container that has a data replica keeps it
//!    until it is collected, whatever its fan-in falls to;
//! 2. copy the data objects that crossed the threshold and have no replica
//!    yet (container data is write-once per key, so a listed data replica
//!    is never re-read);
//! 3. read every group manifest (one batch). A group whose members are all
//!    live stays while any of them lacks a replica — a promoted member keeps
//!    its seat, nothing is regrouped — and is dropped, unread, once all have
//!    one. A group that lost a member to deletion is dropped unless this
//!    pass finds one of its members damaged (it may be the only repair
//!    source), and what the pass finds, it finds while reading the survivors
//!    to regroup them: each is fetched once;
//! 4. seal new parity groups over uncovered members (parity block first,
//!    CRC-sealed manifest last — the manifest PUT is the commit point);
//! 5. refresh metadata replicas whose primary moved on;
//! 6. journal an idempotent [`Intent::DropObjects`] for every obsolete
//!    protection object — orphan parity blocks whose manifest PUT never
//!    happened included — then delete; a crash between record and delete
//!    rolls forward on recovery.
//!
//! Steps 2, 4 and 5 overlap their I/O through `crate::fanout`: detection
//! reads (and the replica PUTs that follow them) of different objects run on
//! a few scoped threads, results come back in sorted key order. Group
//! composition and ids are functions of that order alone, and at most two
//! groups' worth of member bytes is in flight (XOR streams: a member is
//! dropped as soon as it is folded in). Parity blocks are folded and sealed
//! on the calling thread, so the bytes that outlive the pass are not spread
//! over the allocator arenas of short-lived workers.
//!
//! Additions are idempotent byte-identical PUTs and removals are journaled,
//! so a kill at any step leaves a plane the next cycle converges from.

use std::collections::{BTreeSet, HashMap, HashSet};

use slim_index::GlobalIndex;
use slim_lnode::StorageLayer;
use slim_oss::{object_state, reconstruct_object, ObjectState, ObjectStore};
use slim_telemetry::Scope;
use slim_types::redundancy::{xor_into, GroupMember};
use slim_types::{crc, layout, ContainerId, ParityGroup, Result, SlimConfig, SlimError};

use crate::fanin::version_fan_in;
use crate::fanout::{fan_out, WIDTH};
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
    /// Data objects that entered the replica tier in this pass (the data
    /// share of `replicas_written`).
    pub promotions: u64,
    /// Primary objects the pass fetched in full: every metadata primary
    /// (compared with its replica each pass) plus the data objects that
    /// gained a replica or a parity group. The data share is the pass's
    /// O(Δ) cost.
    pub primaries_read: u64,
    /// Parity groups sealed by this pass.
    pub parity_groups_sealed: u64,
    /// Parity groups a deleted or promoted member invalidated and this pass
    /// dropped; their survivors were regrouped.
    pub groups_resealed: u64,
    /// Obsolete redundancy objects dropped (journaled).
    pub objects_dropped: u64,
}

impl RedundancyStats {
    /// Fold the pass into a telemetry scope (canonically `gnode`): work
    /// counters add up, the tier sizes are gauges of the latest pass.
    pub fn emit(&self, scope: &Scope) {
        scope
            .gauge("redundancy.replica_tier")
            .set(self.replica_tier as i64);
        scope
            .gauge("redundancy.parity_tier")
            .set(self.parity_tier as i64);
        scope
            .counter("redundancy.replicas_written")
            .add(self.replicas_written);
        scope.counter("redundancy.promotions").add(self.promotions);
        scope
            .counter("redundancy.primaries_read")
            .add(self.primaries_read);
        scope
            .counter("redundancy.parity_groups_sealed")
            .add(self.parity_groups_sealed);
        scope
            .counter("redundancy.groups_resealed")
            .add(self.groups_resealed);
        scope
            .counter("redundancy.objects_dropped")
            .add(self.objects_dropped);
    }
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

/// The group id in a `redundancy/parity/{gid}` key.
fn parity_block_id(key: &str) -> Option<u64> {
    key.strip_prefix(layout::PARITY_DATA_PREFIX)?.parse().ok()
}

/// The parity group being folded together: members arrive in sorted key
/// order, each XOR-ed into the block and dropped.
#[derive(Default)]
struct OpenGroup {
    parity: Vec<u8>,
    members: Vec<GroupMember>,
}

impl OpenGroup {
    fn fold(&mut self, key: &str, sealed_bytes: &[u8]) {
        xor_into(&mut self.parity, sealed_bytes);
        self.members.push(GroupMember {
            key: key.to_string(),
            len: sealed_bytes.len() as u64,
        });
    }

    /// PUT the parity block, then — last, the commit point — the manifest,
    /// and start over. Returns the members now covered (none, and nothing
    /// written, if every planned member turned out damaged).
    fn seal(&mut self, oss: &dyn ObjectStore, gid: u64) -> Result<Vec<GroupMember>> {
        if self.members.is_empty() {
            return Ok(Vec::new());
        }
        oss.put(&layout::parity_data(gid), crc::seal(&self.parity))?;
        self.parity.clear();
        let manifest = ParityGroup {
            id: gid,
            members: std::mem::take(&mut self.members),
        };
        oss.put(&layout::parity_group_manifest(gid), manifest.encode())?;
        Ok(manifest.members)
    }
}

/// Re-tier the redundancy plane to match the current dedup state (see the
/// module docs for the pass structure).
pub fn update_redundancy(
    storage: &StorageLayer,
    journal: &Journal,
    config: &SlimConfig,
) -> Result<RedundancyStats> {
    let oss = storage.oss().as_ref();
    let mut stats = RedundancyStats::default();

    let mut ids = storage.list_containers();
    ids.sort();
    let live: HashSet<ContainerId> = ids.iter().copied().collect();
    let is_gone =
        |key: &str| layout::parse_container_key(key).is_some_and(|id| !live.contains(&id));
    let fan_in = version_fan_in(storage)?;
    let existing_replicas: BTreeSet<String> =
        oss.list(layout::REPLICA_PREFIX).into_iter().collect();

    // Desired tiers. Metadata objects of every live container are always
    // replicated; data objects split by version fan-in, and one that already
    // has its replica stays where it is (promotion is one-way: a fan-in that
    // fell because old versions were swept marks a container on its way
    // out, not one worth re-reading to seal into a group).
    let mut replicated: HashSet<String> = HashSet::new();
    let mut promoted: Vec<String> = Vec::new();
    let mut parity_keys: BTreeSet<String> = BTreeSet::new();
    for &id in &ids {
        let key = layout::container_data(id);
        if existing_replicas.contains(&layout::replica_key(&key)) {
            replicated.insert(key);
        } else if fan_in.get(&id).copied().unwrap_or(0) >= config.redundancy_replica_versions {
            promoted.push(key);
        } else {
            parity_keys.insert(key);
        }
    }

    let mut drop_keys: Vec<String> = Vec::new();
    // Keys this pass read (or probed) and found damaged: present but
    // corrupt, a live container's object gone, or a collected container's
    // object gone with a quarantined copy parked.
    let mut damaged: HashSet<String> = HashSet::new();

    // Promotions. Container data is write-once per key — every rewrite
    // takes a fresh id and ids are never reused (`StorageLayer::open`) — so
    // a listed data replica is current by construction and is neither read
    // nor compared; only containers without one are fetched, verified and
    // copied. Rot inside a replica is `GNode::verify_checksums`' to find: it
    // drops the replica, and the next pass lands here.
    fan_out(
        &promoted,
        WIDTH,
        |key| match object_state(oss, key)? {
            ObjectState::Intact(primary) => {
                oss.put(&layout::replica_key(key), primary).map(|()| true)
            }
            // Damage is never replicated.
            ObjectState::Corrupt | ObjectState::Missing => Ok(false),
        },
        |key, copied| {
            stats.primaries_read += 1;
            if copied? {
                stats.replicas_written += 1;
                stats.promotions += 1;
                replicated.insert(key.clone());
            } else {
                damaged.insert(key.clone());
            }
            Ok(())
        },
    )?;
    stats.replica_tier = replicated.len() as u64;

    // Existing parity groups, all manifests in one batch (they are not
    // protected keys, so the batch is raw). A group stays while every member
    // is a live container and at least one of them has no replica to fall
    // back on — a promoted member keeps its seat beside those that were not
    // (the group costs nothing extra, regrouping the others would re-read
    // them all). A group whose members all have replicas goes, unread; one
    // that lost a member to deletion is decided once the pass has read what
    // it must read anyway.
    let group_keys = oss.list(layout::PARITY_GROUP_PREFIX);
    let block_ids: BTreeSet<u64> = oss
        .list(layout::PARITY_DATA_PREFIX)
        .iter()
        .filter_map(|key| parity_block_id(key))
        .collect();
    let mut covered: HashSet<String> = HashSet::new();
    let mut manifested: HashSet<u64> = HashSet::new();
    let mut invalid: Vec<ParityGroup> = Vec::new();
    for (gkey, buf) in group_keys.iter().zip(oss.get_many(&group_keys)) {
        let Some(gid) = layout::parse_parity_group_key(gkey) else {
            continue;
        };
        manifested.insert(gid);
        match buf.map(|buf| ParityGroup::decode(&buf)) {
            // A manifest whose parity block is gone protects nothing: drop
            // it, and its members are sealed again below.
            Ok(Ok(_)) if !block_ids.contains(&gid) => drop_keys.push(gkey.clone()),
            Ok(Ok(group)) => {
                let keys = || group.members.iter().map(|m| &m.key);
                if !keys().all(|key| !is_gone(key) && !covered.contains(key)) {
                    invalid.push(group);
                } else if keys().all(|key| replicated.contains(key)) {
                    drop_keys.push(gkey.clone());
                    drop_keys.push(layout::parity_data(gid));
                } else {
                    covered.extend(keys().cloned());
                }
            }
            // A corrupt manifest is useless as a repair source: drop it and
            // its parity block.
            Ok(Err(_)) => {
                drop_keys.push(gkey.clone());
                drop_keys.push(layout::parity_data(gid));
            }
            Err(e) => return Err(e),
        }
    }
    // A parity block whose manifest PUT never happened protects nothing.
    // New groups take ids above every id in use, blocks included, so this
    // pass cannot seal under an id it is about to drop.
    drop_keys.extend(
        block_ids
            .iter()
            .filter(|gid| !manifested.contains(gid))
            .map(|&gid| layout::parity_data(gid)),
    );
    let mut next_gid = manifested
        .iter()
        .chain(&block_ids)
        .max()
        .map_or(0, |max| max + 1);

    // Seal new groups over uncovered parity-tier members — survivors of the
    // invalidated groups among them, which is the one read they get. The
    // reads overlap; members are folded in sorted key order, so composition
    // and ids are functions of that order, and a group's two PUTs happen on
    // this thread while the next groups' reads are already in flight.
    let uncovered: Vec<&String> = parity_keys
        .iter()
        .filter(|k| !covered.contains(*k))
        .collect();
    let group_size = config.parity_group_size.max(1);
    let mut open = OpenGroup::default();
    let (mut planned, mut remaining) = (0usize, uncovered.len());
    fan_out(
        &uncovered,
        WIDTH,
        |key| object_state(oss, key),
        |key, state| {
            stats.primaries_read += 1;
            match state? {
                ObjectState::Intact(buf) => open.fold(key, &buf),
                // Damage is never sealed into a group: a skipped member is
                // grouped by a later cycle, after repair.
                ObjectState::Corrupt | ObjectState::Missing => {
                    damaged.insert((*key).clone());
                }
            }
            planned += 1;
            remaining -= 1;
            if planned == group_size || remaining == 0 {
                planned = 0;
                let members = open.seal(oss, next_gid)?;
                if !members.is_empty() {
                    next_gid += 1;
                    stats.parity_groups_sealed += 1;
                    covered.extend(members.into_iter().map(|m| m.key));
                }
            }
            Ok(())
        },
    )?;

    // Metadata mutates in place (deletion marks), so its replica is compared
    // every pass and refreshed when the primary's bytes moved on.
    let meta_keys: Vec<String> = ids.iter().map(|&id| layout::container_meta(id)).collect();
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
        fan_out(
            batch,
            WIDTH,
            |original| {
                let ObjectState::Intact(primary) = object_state(oss, original)? else {
                    return Ok(false);
                };
                let rkey = layout::replica_key(original);
                if current.get(rkey.as_str()) == Some(&primary) {
                    return Ok(false);
                }
                oss.put(&rkey, primary).map(|()| true)
            },
            |_, refreshed: Result<bool>| {
                stats.primaries_read += 1;
                stats.replicas_written += u64::from(refreshed?);
                Ok(())
            },
        )?;
    }

    // What is left to decide concerns objects of containers that are gone:
    // members of invalidated groups, and replicas. The plane still owes such
    // a key a repair source when it is present but corrupt, or missing with
    // a quarantined copy parked (missing with no quarantined copy is
    // legitimate deletion).
    let obsolete_replicas: Vec<&String> = existing_replicas
        .iter()
        .filter(|rkey| layout::replica_original(rkey).is_some_and(is_gone))
        .collect();
    let mut probes: BTreeSet<&str> = obsolete_replicas
        .iter()
        .filter_map(|rkey| layout::replica_original(rkey))
        .collect();
    probes.extend(
        invalid
            .iter()
            .flat_map(|group| &group.members)
            .map(|m| m.key.as_str())
            .filter(|key| is_gone(key)),
    );
    let probes: Vec<&str> = probes.into_iter().collect();
    fan_out(
        &probes,
        WIDTH,
        |key| {
            Ok(match object_state(oss, key)? {
                ObjectState::Intact(_) => false,
                ObjectState::Corrupt => true,
                ObjectState::Missing => oss.exists(&layout::quarantine_key(key))?,
            })
        },
        |key, owed: Result<bool>| {
            if owed? {
                damaged.insert((*key).to_string());
            }
            Ok(())
        },
    )?;

    // An invalidated group survives only while one of its members is
    // damaged — it may be the only reconstruction source.
    for group in invalid {
        if group.members.iter().any(|m| damaged.contains(&m.key)) {
            covered.extend(group.members.into_iter().map(|m| m.key));
        } else {
            stats.groups_resealed += 1;
            drop_keys.push(layout::parity_group_manifest(group.id));
            drop_keys.push(layout::parity_data(group.id));
        }
    }
    // A collected container's replicas go once its primary is legitimately
    // gone (or whole again).
    drop_keys.extend(
        obsolete_replicas
            .into_iter()
            .filter(|rkey| !layout::replica_original(rkey).is_some_and(|key| damaged.contains(key)))
            .cloned(),
    );

    stats.objects_dropped = drop_keys.len() as u64;
    drop_objects(oss, journal, &drop_keys)?;

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

/// CRC-check every protection copy — replicas and parity blocks — and drop
/// the ones that fail, so the next re-tier rewrites them from the verified
/// primaries (the re-tier itself trusts a listed data replica and a listed
/// parity block without reading them). A rotten parity block takes its group
/// manifest with it: the members are uncovered again and get resealed.
/// Returns the number of copies dropped.
pub(crate) fn drop_rotten_copies(oss: &dyn ObjectStore, journal: &Journal) -> Result<u64> {
    let mut copies = oss.list(layout::REPLICA_PREFIX);
    copies.extend(oss.list(layout::PARITY_DATA_PREFIX));
    let mut rotten: Vec<String> = Vec::new();
    fan_out(
        &copies,
        WIDTH,
        |key| object_state(oss, key),
        |key, state| {
            if state? == ObjectState::Corrupt {
                rotten.push(key.clone());
            }
            Ok(())
        },
    )?;
    let copies_dropped = rotten.len() as u64;
    let manifests: Vec<String> = rotten
        .iter()
        .filter_map(|key| parity_block_id(key))
        .map(layout::parity_group_manifest)
        .collect();
    rotten.extend(manifests);
    drop_objects(oss, journal, &rotten)?;
    Ok(copies_dropped)
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
