//! The global fingerprint index (§III-B, §VI-A).
//!
//! Maintains the exact mapping from every chunk fingerprint of a user to the
//! container that stores the authoritative copy. It lives in Rocks-OSS, so
//! point lookups cost OSS range reads — which is exactly why the *online*
//! path never touches it: only the G-node (reverse deduplication, container
//! rewrites) and old-version restores chasing relocated chunks do.
//!
//! A resident bloom filter in front of the LSM quickly passes unique chunks,
//! the optimization the paper describes for speeding up the reverse-dedup
//! filter phase.

use std::sync::Arc;

use parking_lot::Mutex;
use slim_oss::rocks::{RocksConfig, RocksOss};
use slim_oss::ObjectStore;
use slim_types::bloom::BloomFilter;
use slim_types::{layout, ContainerId, Fingerprint, Result};

/// The global fingerprint → container index.
pub struct GlobalIndex {
    db: RocksOss,
    bloom: Mutex<BloomFilter>,
}

impl GlobalIndex {
    /// Open (or create) the index on `oss` under the standard prefix.
    pub fn open(oss: Arc<dyn ObjectStore>) -> Result<Self> {
        Self::open_with(oss, RocksConfig::default(), 1_000_000)
    }

    /// Open with explicit LSM tuning and bloom capacity.
    pub fn open_with(
        oss: Arc<dyn ObjectStore>,
        config: RocksConfig,
        expected_chunks: usize,
    ) -> Result<Self> {
        let db = RocksOss::open(oss, layout::GLOBAL_INDEX_PREFIX, config)?;
        let index = GlobalIndex {
            db,
            bloom: Mutex::new(BloomFilter::with_rate(expected_chunks, 0.01)),
        };
        index.rebuild_bloom()?;
        Ok(index)
    }

    /// Record that `fp`'s authoritative copy lives in `container`.
    pub fn insert(&self, fp: &Fingerprint, container: ContainerId) -> Result<()> {
        self.db.put(fp.as_bytes(), &container.0.to_le_bytes())?;
        self.bloom.lock().insert(fp.prefix64());
        Ok(())
    }

    /// Where `fp` is stored, if known.
    pub fn get(&self, fp: &Fingerprint) -> Result<Option<ContainerId>> {
        let Some(raw) = self.db.get(fp.as_bytes())? else {
            return Ok(None);
        };
        let arr: [u8; 8] = raw
            .as_slice()
            .try_into()
            .map_err(|_| slim_types::SlimError::corrupt("global index value", "bad length"))?;
        Ok(Some(ContainerId(u64::from_le_bytes(arr))))
    }

    /// Relocate `fp` to a new container (reverse dedup / SCC / rewrite).
    pub fn relocate(&self, fp: &Fingerprint, container: ContainerId) -> Result<()> {
        self.insert(fp, container)
    }

    /// Forget `fp` entirely (all copies collected).
    pub fn remove(&self, fp: &Fingerprint) -> Result<()> {
        self.db.delete(fp.as_bytes())
    }

    /// Fast pre-filter: false means `fp` is certainly *not* indexed, so the
    /// chunk is unique and the costly LSM lookup can be skipped (§VI-A).
    pub fn may_contain(&self, fp: &Fingerprint) -> bool {
        self.bloom.lock().may_contain(fp.prefix64())
    }

    /// Flush buffered writes to OSS.
    pub fn flush(&self) -> Result<()> {
        self.db.flush()
    }

    /// Compact the LSM.
    pub fn compact(&self) -> Result<()> {
        self.db.compact()
    }

    /// Number of SSTables currently in the LSM (exposed as the
    /// `rocks.tables` telemetry gauge).
    pub fn table_count(&self) -> usize {
        self.db.table_count()
    }

    /// Bytes buffered in the memtable (exposed as the
    /// `rocks.memtable_bytes` telemetry gauge).
    pub fn memtable_bytes(&self) -> usize {
        self.db.memtable_bytes()
    }

    /// Integrity sweep over the LSM's persistent runs: verify every
    /// SSTable's whole-object CRC32, quarantine corrupted ones, and retire
    /// SSTable objects the durable manifest no longer references (leftovers
    /// of a compaction whose post-flip deletes failed).
    ///
    /// Returns `(quarantined object keys, retired object count)`. Dropping a
    /// corrupt run *loses* the fingerprint entries it held; callers must
    /// re-derive them from container metadata (see `GNode::recover`). The
    /// bloom filter is rebuilt whenever a run was dropped, so it never
    /// over-promises against the shrunk index.
    pub fn verify_and_repair(&self) -> Result<(Vec<String>, usize)> {
        let quarantined = self.db.quarantine_corrupt_tables()?;
        let retired = self.db.retire_unreferenced_tables()?;
        if !quarantined.is_empty() {
            self.rebuild_bloom()?;
        }
        Ok((quarantined, retired))
    }

    /// Delete every index entry pointing at one of `containers` (full scan;
    /// offline use only). Returns the number of entries removed. Used when
    /// corrupt containers are quarantined: an honest `ChunkUnresolvable`
    /// beats a dangling pointer at an object that no longer decodes.
    pub fn remove_references_to(
        &self,
        containers: &std::collections::HashSet<ContainerId>,
    ) -> Result<u64> {
        if containers.is_empty() {
            return Ok(0);
        }
        let rows = self.db.scan_prefix(&[])?;
        let mut removed = 0u64;
        for (key, value) in &rows {
            let arr: [u8; 8] = value
                .as_slice()
                .try_into()
                .map_err(|_| slim_types::SlimError::corrupt("global index value", "bad length"))?;
            if containers.contains(&ContainerId(u64::from_le_bytes(arr))) {
                self.db.delete(key)?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.flush()?;
        }
        Ok(removed)
    }

    /// Rebuild the resident bloom filter from the persistent state (called
    /// on open; the bloom is process state, not persisted).
    pub fn rebuild_bloom(&self) -> Result<()> {
        let rows = self.db.scan_prefix(&[])?;
        let mut bloom = BloomFilter::with_rate(rows.len().max(1024), 0.01);
        for (key, _) in &rows {
            if let Some(fp) = Fingerprint::from_slice(key) {
                bloom.insert(fp.prefix64());
            }
        }
        *self.bloom.lock() = bloom;
        Ok(())
    }

    /// Every container currently holding an authoritative chunk copy (full
    /// scan; offline use only). The G-node's orphan scrub unions this with
    /// manifest/recipe reachability before reclaiming container keys.
    pub fn referenced_containers(&self) -> Result<std::collections::HashSet<ContainerId>> {
        let rows = self.db.scan_prefix(&[])?;
        let mut out = std::collections::HashSet::with_capacity(rows.len());
        for (_, value) in &rows {
            let arr: [u8; 8] = value
                .as_slice()
                .try_into()
                .map_err(|_| slim_types::SlimError::corrupt("global index value", "bad length"))?;
            out.insert(ContainerId(u64::from_le_bytes(arr)));
        }
        Ok(out)
    }

    /// Number of indexed fingerprints (full scan; offline use only).
    pub fn len(&self) -> Result<usize> {
        Ok(self.db.scan_prefix(&[])?.len())
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::Oss;

    fn fp(b: u8) -> Fingerprint {
        Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    fn open_index(oss: &Oss) -> GlobalIndex {
        GlobalIndex::open_with(Arc::new(oss.clone()), RocksConfig::small_for_tests(), 1024).unwrap()
    }

    #[test]
    fn insert_get_relocate_remove() {
        let oss = Oss::in_memory();
        let idx = open_index(&oss);
        assert_eq!(idx.get(&fp(1)).unwrap(), None);
        idx.insert(&fp(1), ContainerId(10)).unwrap();
        assert_eq!(idx.get(&fp(1)).unwrap(), Some(ContainerId(10)));
        idx.relocate(&fp(1), ContainerId(22)).unwrap();
        assert_eq!(idx.get(&fp(1)).unwrap(), Some(ContainerId(22)));
        idx.remove(&fp(1)).unwrap();
        assert_eq!(idx.get(&fp(1)).unwrap(), None);
    }

    #[test]
    fn bloom_prefilter_has_no_false_negatives() {
        let oss = Oss::in_memory();
        let idx = open_index(&oss);
        for b in 0..100u8 {
            idx.insert(&fp(b), ContainerId(b as u64)).unwrap();
        }
        for b in 0..100u8 {
            assert!(idx.may_contain(&fp(b)));
        }
    }

    #[test]
    fn survives_flush_and_reopen() {
        let oss = Oss::in_memory();
        {
            let idx = open_index(&oss);
            for b in 0..50u8 {
                idx.insert(&fp(b), ContainerId(b as u64 + 100)).unwrap();
            }
            idx.flush().unwrap();
        }
        let idx = open_index(&oss);
        for b in 0..50u8 {
            assert_eq!(idx.get(&fp(b)).unwrap(), Some(ContainerId(b as u64 + 100)));
            assert!(idx.may_contain(&fp(b)), "bloom rebuilt on open");
        }
        assert_eq!(idx.len().unwrap(), 50);
        assert!(!idx.is_empty().unwrap());
    }

    #[test]
    fn referenced_containers_scans_values() {
        let oss = Oss::in_memory();
        let idx = open_index(&oss);
        assert!(idx.referenced_containers().unwrap().is_empty());
        idx.insert(&fp(1), ContainerId(5)).unwrap();
        idx.insert(&fp(2), ContainerId(5)).unwrap();
        idx.insert(&fp(3), ContainerId(9)).unwrap();
        let refs = idx.referenced_containers().unwrap();
        assert_eq!(refs.len(), 2);
        assert!(refs.contains(&ContainerId(5)) && refs.contains(&ContainerId(9)));
        idx.remove(&fp(3)).unwrap();
        assert!(!idx
            .referenced_containers()
            .unwrap()
            .contains(&ContainerId(9)));
    }

    #[test]
    fn remove_references_to_unindexes_quarantined_containers() {
        let oss = Oss::in_memory();
        let idx = open_index(&oss);
        idx.insert(&fp(1), ContainerId(5)).unwrap();
        idx.insert(&fp(2), ContainerId(5)).unwrap();
        idx.insert(&fp(3), ContainerId(9)).unwrap();
        let doomed = std::collections::HashSet::from([ContainerId(5)]);
        assert_eq!(idx.remove_references_to(&doomed).unwrap(), 2);
        assert_eq!(idx.get(&fp(1)).unwrap(), None);
        assert_eq!(idx.get(&fp(2)).unwrap(), None);
        assert_eq!(idx.get(&fp(3)).unwrap(), Some(ContainerId(9)));
        assert_eq!(idx.remove_references_to(&doomed).unwrap(), 0);
    }

    #[test]
    fn verify_and_repair_quarantines_corrupt_runs() {
        use slim_oss::ObjectStore;
        let oss = Oss::in_memory();
        let idx = open_index(&oss);
        for b in 0..10u8 {
            idx.insert(&fp(b), ContainerId(b as u64)).unwrap();
        }
        idx.flush().unwrap();
        assert_eq!(idx.table_count(), 1);
        assert_eq!(
            idx.verify_and_repair().unwrap(),
            (Vec::new(), 0),
            "intact index passes clean"
        );
        let key = oss
            .list(layout::GLOBAL_INDEX_PREFIX)
            .into_iter()
            .find(|k| k.contains("sst/"))
            .unwrap();
        let mut buf = oss.get(&key).unwrap().to_vec();
        buf[3] ^= 0x40;
        oss.put(&key, bytes::Bytes::from(buf)).unwrap();
        let (quarantined, retired) = idx.verify_and_repair().unwrap();
        assert_eq!(quarantined, vec![key.clone()]);
        assert_eq!(retired, 0);
        assert_eq!(idx.table_count(), 0);
        assert!(oss.exists(&layout::quarantine_key(&key)).unwrap());
        assert_eq!(
            idx.get(&fp(1)).unwrap(),
            None,
            "entries of the dropped run read as absent until re-derived"
        );
    }

    #[test]
    fn unknown_fp_usually_filtered_by_bloom() {
        let oss = Oss::in_memory();
        let idx = open_index(&oss);
        for b in 0..20u8 {
            idx.insert(&fp(b), ContainerId(1)).unwrap();
        }
        let misses = (100..=255u8).filter(|&b| !idx.may_contain(&fp(b))).count();
        assert!(
            misses > 140,
            "bloom should pass most unique chunks: {misses}"
        );
    }
}
