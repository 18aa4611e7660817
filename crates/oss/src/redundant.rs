//! Self-healing redundancy wrapper over any [`ObjectStore`].
//!
//! Deduplication concentrates risk: one container can hold the only copy of
//! chunks referenced by many backup versions, so with plain CRC framing a
//! single bit-flip is an honest-but-permanent loss. [`RedundantStore`] turns
//! detection into recovery. It serves every key class transparently, but for
//! *protected* keys (container objects) a full `get`/`get_many` that comes
//! back corrupt or missing is reconstructed from the redundancy plane and
//! served byte-identical, and the primary is rewritten in place
//! (read-repair) so the damage does not survive the read.
//!
//! Reconstruction sources, in order of preference:
//!
//! 1. a full replica under [`layout::REPLICA_PREFIX`];
//! 2. an intact copy parked under [`layout::QUARANTINE_PREFIX`] (integrity
//!    sweeps quarantine whole containers, so one corrupt twin often drags an
//!    intact sibling object with it);
//! 3. XOR parity: the group manifest under [`layout::PARITY_GROUP_PREFIX`]
//!    names the members, and the missing member is the XOR of the parity
//!    block with every other member, truncated to its recorded length.
//!
//! Every reconstruction is verified against the object's own CRC trailer
//! before it is trusted or served, so a stale replica or a mismatched group
//! can never resurrect plausible garbage. All steps are individual OSS
//! operations: fault plans (and therefore kill-point sweeps) cover each one,
//! and every mutation is an idempotent rewrite of byte-identical data, so a
//! crash at any step leaves a state the next read or repair sweep converges
//! from.
//!
//! *Which* keys carry which protection is decided elsewhere: the G-node's
//! dedup-aware policy writes replicas and seals parity groups during
//! maintenance. This wrapper only consumes them.

use std::sync::Arc;

use bytes::Bytes;
use slim_telemetry::{Counter, Registry, Scope};
use slim_types::redundancy::reconstruct_member;
use slim_types::{crc, layout, ParityGroup, Result, SlimError};

use crate::store::ObjectStore;

/// Whether the redundancy plane protects `key` (container objects only;
/// recipes and manifests are tiny and versioned, the index self-repairs).
pub fn is_protected(key: &str) -> bool {
    key.starts_with(layout::CONTAINER_PREFIX)
}

/// Where a successful reconstruction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairSource {
    /// Full replica under `redundancy/replica/`.
    Replica,
    /// Intact copy parked under `quarantine/`.
    Quarantine,
    /// XOR of the parity block with the other group members.
    Parity,
}

/// Counters of the self-healing read path, registered as
/// `oss.redundancy.*` when constructed from the shared `oss` scope.
#[derive(Debug, Clone)]
pub struct RedundancyMetrics {
    /// Successful reconstructions served to callers.
    pub reconstructions: Counter,
    /// Reconstructions satisfied by a full replica.
    pub replica_hits: Counter,
    /// Reconstructions satisfied by an intact quarantined copy.
    pub quarantine_hits: Counter,
    /// Reconstructions that XOR-ed a parity group back together.
    pub parity_rebuilds: Counter,
    /// Read-repairs durably rewritten over the damaged primary.
    pub repairs_written: Counter,
    /// Read-repair rewrites that failed (served data was still good; the
    /// next read or repair sweep retries).
    pub repair_failures: Counter,
    /// Damaged protected reads with no usable reconstruction source.
    pub unrepairable_reads: Counter,
}

impl RedundancyMetrics {
    /// Register (or re-attach to) the counters under `scope` (canonically
    /// the shared `"oss"` scope).
    pub fn new(scope: &Scope) -> Self {
        RedundancyMetrics {
            reconstructions: scope.counter("redundancy.reconstructions"),
            replica_hits: scope.counter("redundancy.replica_hits"),
            quarantine_hits: scope.counter("redundancy.quarantine_hits"),
            parity_rebuilds: scope.counter("redundancy.parity_rebuilds"),
            repairs_written: scope.counter("redundancy.repairs_written"),
            repair_failures: scope.counter("redundancy.repair_failures"),
            unrepairable_reads: scope.counter("redundancy.unrepairable_reads"),
        }
    }
}

impl Default for RedundancyMetrics {
    fn default() -> Self {
        RedundancyMetrics::new(&Registry::new().scope("oss"))
    }
}

/// What a raw read of one CRC-sealed object found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectState {
    /// Present with a valid CRC trailer; the sealed bytes as stored.
    Intact(Bytes),
    /// Present, but the trailer is absent or does not match the payload.
    Corrupt,
    /// No object under the key.
    Missing,
}

/// Whether the object stored under `key` is intact — the one detection
/// read: [`ObjectStore::get_raw`] (never healed on the way) plus the CRC
/// trailer check. I/O errors other than a missing object are propagated.
pub fn object_state(store: &dyn ObjectStore, key: &str) -> Result<ObjectState> {
    match store.get_raw(key) {
        Ok(buf) if crc::verified_payload_len(&buf, "stored object").is_ok() => {
            Ok(ObjectState::Intact(buf))
        }
        Ok(_) => Ok(ObjectState::Corrupt),
        Err(SlimError::ObjectNotFound(_)) => Ok(ObjectState::Missing),
        Err(e) => Err(e),
    }
}

/// Best available bytes for a parity-group member: primary, then replica,
/// then quarantined copy — whichever first passes its CRC check. Any
/// failure (missing, transient, corrupt) disqualifies a source.
fn member_bytes(store: &dyn ObjectStore, key: &str) -> Option<Bytes> {
    [
        key.to_string(),
        layout::replica_key(key),
        layout::quarantine_key(key),
    ]
    .iter()
    .find_map(|source| match object_state(store, source) {
        Ok(ObjectState::Intact(buf)) => Some(buf),
        _ => None,
    })
}

/// Reconstruct the sealed bytes of `key` from the redundancy plane, without
/// touching the (possibly damaged) primary. Returns `Ok(None)` when no
/// source can produce a CRC-verified copy. Never heals in place — callers
/// decide whether to rewrite the primary.
pub fn reconstruct_object(
    store: &dyn ObjectStore,
    key: &str,
) -> Result<Option<(Bytes, RepairSource)>> {
    // A source that cannot be read (missing, transient, corrupt) is skipped.
    if let Ok(ObjectState::Intact(buf)) = object_state(store, &layout::replica_key(key)) {
        return Ok(Some((buf, RepairSource::Replica)));
    }
    if let Ok(ObjectState::Intact(buf)) = object_state(store, &layout::quarantine_key(key)) {
        return Ok(Some((buf, RepairSource::Quarantine)));
    }
    // Parity groups hold container data only, and a data object that is gone
    // together with every trace of its container's metadata was collected,
    // not damaged: old versions' recipes keep naming containers the G-node
    // has since rewritten, and each of those reads lands here.
    let Some(id) = layout::parse_container_key(key).filter(|_| key.ends_with("/data")) else {
        return Ok(None);
    };
    let meta = layout::container_meta(id);
    let traces = [
        key.to_string(),
        layout::replica_key(&meta),
        layout::quarantine_key(&meta),
        meta,
    ];
    if !traces.iter().any(|k| store.exists(k).unwrap_or(true)) {
        return Ok(None);
    }
    // The group manifests in one batch (they are not protected keys, so on
    // any stack the batch is raw), decoded in id order until one names this
    // key.
    let group_keys = store.list(layout::PARITY_GROUP_PREFIX);
    for buf in store.get_many(&group_keys) {
        let Ok(buf) = buf else {
            continue;
        };
        let Ok(group) = ParityGroup::decode(&buf) else {
            continue; // corrupt manifest: useless as a source, skip
        };
        let Some(target) = group.member(key) else {
            continue;
        };
        let Ok(ObjectState::Intact(parity)) = object_state(store, &layout::parity_data(group.id))
        else {
            continue;
        };
        let Ok(parity_payload) = crc::unseal(&parity, "parity block") else {
            continue;
        };
        let mut others = Vec::with_capacity(group.members.len() - 1);
        let mut complete = true;
        for m in group.members.iter().filter(|m| m.key != key) {
            match member_bytes(store, &m.key) {
                Some(buf) => others.push(buf),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if !complete {
            continue;
        }
        let rebuilt = reconstruct_member(
            &parity_payload,
            others.iter().map(|b| b.as_ref()),
            target.len as usize,
        );
        // The rebuilt object carries its own CRC trailer: verify before
        // trusting, so stale members or a mismatched manifest cannot
        // resurrect plausible garbage.
        if crc::verified_payload_len(&rebuilt, "reconstructed object").is_ok() {
            return Ok(Some((Bytes::from(rebuilt), RepairSource::Parity)));
        }
        // A group that names the key and cannot rebuild it: a later group
        // may name it too (regrouping overlaps the old group until the old
        // one is dropped).
    }
    Ok(None)
}

/// A self-healing [`ObjectStore`] wrapper (see the module docs).
pub struct RedundantStore {
    inner: Arc<dyn ObjectStore>,
    metrics: RedundancyMetrics,
}

impl RedundantStore {
    /// Wrap `inner` with a private metric registry.
    pub fn new(inner: Arc<dyn ObjectStore>) -> Self {
        RedundantStore {
            inner,
            metrics: RedundancyMetrics::default(),
        }
    }

    /// Wrap `inner`, registering the `redundancy.*` counters under `scope`.
    pub fn with_telemetry(inner: Arc<dyn ObjectStore>, scope: &Scope) -> Self {
        RedundantStore {
            inner,
            metrics: RedundancyMetrics::new(scope),
        }
    }

    /// Live counters of the healing read path.
    pub fn metrics(&self) -> &RedundancyMetrics {
        &self.metrics
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn ObjectStore> {
        &self.inner
    }

    /// Serve a damaged protected read: reconstruct, read-repair the
    /// primary, and return the verified bytes; fall back to the primary's
    /// own (corrupt or missing) outcome when no source helps.
    fn heal_read(&self, key: &str, fallback: Result<Bytes>) -> Result<Bytes> {
        match reconstruct_object(self.inner.as_ref(), key) {
            Ok(Some((bytes, source))) => {
                self.metrics.reconstructions.inc();
                match source {
                    RepairSource::Replica => self.metrics.replica_hits.inc(),
                    RepairSource::Quarantine => self.metrics.quarantine_hits.inc(),
                    RepairSource::Parity => self.metrics.parity_rebuilds.inc(),
                }
                // Read-repair, decoupled from serving: the rewrite is an
                // idempotent put of byte-identical sealed data, so a failure
                // (or a kill-point) here only defers healing to the next
                // read or repair sweep — the caller still gets good bytes.
                match self.inner.put(key, bytes.clone()) {
                    Ok(()) => self.metrics.repairs_written.inc(),
                    Err(_) => self.metrics.repair_failures.inc(),
                }
                Ok(bytes)
            }
            _ => {
                self.metrics.unrepairable_reads.inc();
                fallback
            }
        }
    }

    /// Whether this read outcome of a protected key needs healing.
    fn damaged(item: &Result<Bytes>) -> bool {
        match item {
            Ok(buf) => crc::verified_payload_len(buf, "container object").is_err(),
            Err(SlimError::ObjectNotFound(_)) => true,
            Err(_) => false,
        }
    }
}

impl ObjectStore for RedundantStore {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.inner.put(key, value)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let outcome = self.inner.get(key);
        if is_protected(key) && Self::damaged(&outcome) {
            self.heal_read(key, outcome)
        } else {
            outcome
        }
    }

    fn get_raw(&self, key: &str) -> Result<Bytes> {
        self.inner.get_raw(key)
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        // Range reads cannot be CRC-verified without the whole object, so
        // they pass through; whole-object reads and repair sweeps heal.
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

    fn get_many(&self, keys: &[String]) -> Vec<Result<Bytes>> {
        // One batched pass against the inner store first (identical fault
        // schedule and counters to the sequential loop), then heal the
        // damaged items individually on the cold path.
        let mut out = self.inner.get_many(keys);
        for (key, item) in keys.iter().zip(out.iter_mut()) {
            if is_protected(key) && Self::damaged(item) {
                let fallback = std::mem::replace(item, Err(SlimError::ObjectNotFound(key.clone())));
                *item = self.heal_read(key, fallback);
            }
        }
        out
    }

    fn get_range_many(&self, ranges: &[(String, u64, u64)]) -> Vec<Result<Bytes>> {
        self.inner.get_range_many(ranges)
    }

    fn len_many(&self, keys: &[String]) -> Vec<Result<Option<u64>>> {
        self.inner.len_many(keys)
    }

    fn delete_many(&self, keys: &[String]) -> Vec<Result<()>> {
        self.inner.delete_many(keys)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        self.inner.metrics_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oss;
    use slim_types::redundancy::{parity_of, GroupMember};

    fn sealed(tag: u8, len: usize) -> Bytes {
        crc::seal(&vec![tag; len])
    }

    fn data_key(n: u64) -> String {
        layout::container_data(slim_types::ContainerId(n))
    }

    /// A data object under `data_key(n)` beside its container's metadata
    /// (a data object with no trace of metadata reads as collected).
    fn put_member(oss: &Oss, n: u64, data: &Bytes) {
        oss.put(&data_key(n), data.clone()).unwrap();
        let meta = layout::container_meta(slim_types::ContainerId(n));
        oss.put(&meta, sealed(0xEE, 16)).unwrap();
    }

    fn store() -> (Oss, RedundantStore) {
        let oss = Oss::in_memory();
        let wrapped = RedundantStore::new(Arc::new(oss.clone()));
        (oss, wrapped)
    }

    fn seal_group(oss: &Oss, gid: u64, members: &[(String, Bytes)]) {
        let parity = parity_of(members.iter().map(|(_, b)| b.as_ref()));
        oss.put(&layout::parity_data(gid), crc::seal(&parity))
            .unwrap();
        let manifest = ParityGroup {
            id: gid,
            members: members
                .iter()
                .map(|(k, b)| GroupMember {
                    key: k.clone(),
                    len: b.len() as u64,
                })
                .collect(),
        };
        oss.put(&layout::parity_group_manifest(gid), manifest.encode())
            .unwrap();
    }

    #[test]
    fn corrupt_primary_heals_from_replica() {
        let (oss, wrapped) = store();
        let key = data_key(1);
        let good = sealed(0xAB, 100);
        oss.put(&key, good.clone()).unwrap();
        oss.put(&layout::replica_key(&key), good.clone()).unwrap();
        // Flip a payload byte in the primary.
        let mut bad = good.to_vec();
        bad[10] ^= 0xFF;
        oss.put(&key, Bytes::from(bad)).unwrap();

        assert_eq!(wrapped.get(&key).unwrap(), good, "served byte-identical");
        assert_eq!(oss.get(&key).unwrap(), good, "primary read-repaired");
        assert_eq!(wrapped.metrics().reconstructions.get(), 1);
        assert_eq!(wrapped.metrics().replica_hits.get(), 1);
        assert_eq!(wrapped.metrics().repairs_written.get(), 1);
        // Subsequent reads are clean and cost no further healing.
        assert_eq!(wrapped.get(&key).unwrap(), good);
        assert_eq!(wrapped.metrics().reconstructions.get(), 1);
    }

    #[test]
    fn missing_primary_heals_from_parity_group() {
        let (oss, wrapped) = store();
        let members: Vec<(String, Bytes)> = (1..=3)
            .map(|n| (data_key(n), sealed(n as u8, 50 + n as usize * 7)))
            .collect();
        for (n, (_, b)) in (1..).zip(&members) {
            put_member(&oss, n, b);
        }
        seal_group(&oss, 0, &members);

        for (k, b) in &members {
            oss.delete(k).unwrap();
            assert_eq!(&wrapped.get(k).unwrap(), b, "member {k} reconstructed");
            assert_eq!(oss.get(k).unwrap(), b, "member {k} read-repaired");
        }
        assert_eq!(wrapped.metrics().parity_rebuilds.get(), 3);
    }

    #[test]
    fn intact_quarantined_copy_heals_missing_primary() {
        let (oss, wrapped) = store();
        let key = data_key(4);
        let good = sealed(0x44, 64);
        oss.put(&layout::quarantine_key(&key), good.clone())
            .unwrap();

        assert_eq!(wrapped.get(&key).unwrap(), good);
        assert_eq!(wrapped.metrics().quarantine_hits.get(), 1);
        // The quarantined copy is left in place for `scrub --purge`.
        assert!(oss.exists(&layout::quarantine_key(&key)).unwrap());
    }

    #[test]
    fn unprotected_and_unrepairable_outcomes_pass_through() {
        let (oss, wrapped) = store();
        // Unprotected key class: corrupt bytes are served as stored.
        let mangled = Bytes::from_static(b"not a sealed object");
        oss.put("recipes/f/00000001", mangled.clone()).unwrap();
        assert_eq!(wrapped.get("recipes/f/00000001").unwrap(), mangled);
        // Protected but without any redundancy: original outcomes survive.
        let key = data_key(9);
        assert!(matches!(
            wrapped.get(&key),
            Err(SlimError::ObjectNotFound(_))
        ));
        let corrupt = Bytes::from_static(b"garbage");
        oss.put(&key, corrupt.clone()).unwrap();
        assert_eq!(wrapped.get(&key).unwrap(), corrupt);
        assert_eq!(wrapped.metrics().unrepairable_reads.get(), 2);
        // get_raw never heals.
        oss.delete(&key).unwrap();
        oss.put(&layout::replica_key(&key), sealed(9, 10)).unwrap();
        assert!(wrapped.get_raw(&key).is_err());
    }

    #[test]
    fn get_many_heals_damaged_items_in_place() {
        let (oss, wrapped) = store();
        let members: Vec<(String, Bytes)> = (1..=3)
            .map(|n| (data_key(n), sealed(n as u8, 40)))
            .collect();
        for (n, (_, b)) in (1..).zip(&members) {
            put_member(&oss, n, b);
        }
        seal_group(&oss, 0, &members);
        let replica_only = data_key(7);
        let good = sealed(0x77, 33);
        oss.put(&replica_only, good.clone()).unwrap();
        oss.put(&layout::replica_key(&replica_only), good.clone())
            .unwrap();

        // Damage one parity member and the replicated object.
        oss.delete(&members[1].0).unwrap();
        let mut bad = good.to_vec();
        bad[5] ^= 0x01;
        oss.put(&replica_only, Bytes::from(bad)).unwrap();

        let keys: Vec<String> = members
            .iter()
            .map(|(k, _)| k.clone())
            .chain([replica_only.clone(), data_key(8)])
            .collect();
        let out = wrapped.get_many(&keys);
        for ((_, want), got) in members.iter().zip(&out) {
            assert_eq!(got.as_ref().unwrap(), want);
        }
        assert_eq!(out[3].as_ref().unwrap(), &good);
        assert!(matches!(&out[4], Err(SlimError::ObjectNotFound(_))));
        assert_eq!(wrapped.metrics().reconstructions.get(), 2);
    }

    #[test]
    fn collected_container_is_a_miss_not_a_manifest_scan() {
        let (oss, wrapped) = store();
        let members: Vec<(String, Bytes)> = (1..=2)
            .map(|n| (data_key(n), sealed(n as u8, 40)))
            .collect();
        for (n, (_, b)) in (1..).zip(&members) {
            put_member(&oss, n, b);
        }
        seal_group(&oss, 0, &members);
        // Container 1 is collected (data and metadata gone) while a stale
        // manifest still names it: the read is an honest miss, and it does
        // not fetch a single manifest to find that out.
        oss.delete(&members[0].0).unwrap();
        oss.delete(&layout::container_meta(slim_types::ContainerId(1)))
            .unwrap();
        let gets = oss.metrics().snapshot().get_requests;
        assert!(matches!(
            wrapped.get(&members[0].0),
            Err(SlimError::ObjectNotFound(_))
        ));
        // (Misses are not counted as served requests; the manifest, which
        // exists, would have been.)
        assert_eq!(oss.metrics().snapshot().get_requests, gets);
        assert_eq!(wrapped.metrics().unrepairable_reads.get(), 1);
    }

    #[test]
    fn stale_source_is_rejected_not_served() {
        let (oss, wrapped) = store();
        let key = data_key(2);
        // A "replica" whose trailer does not verify must never be served.
        oss.put(&layout::replica_key(&key), Bytes::from_static(b"junk"))
            .unwrap();
        assert!(matches!(
            wrapped.get(&key),
            Err(SlimError::ObjectNotFound(_))
        ));
        assert_eq!(wrapped.metrics().reconstructions.get(), 0);
        assert_eq!(wrapped.metrics().unrepairable_reads.get(), 1);
    }
}
