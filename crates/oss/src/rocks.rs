//! Rocks-OSS: an LSM key-value store whose persistent runs are OSS objects.
//!
//! The paper stores the global fingerprint index in "Rocks-OSS, which is a
//! RocksDB that is adapted to suit the OSS" (§III-B). This module is a
//! from-scratch LSM with the same access profile:
//!
//! * writes buffer in an in-memory **memtable** and flush to immutable,
//!   sorted **SSTable** objects on OSS;
//! * every SSTable carries a **bloom filter** (skips point reads) and a
//!   **sparse index** (one key every few entries), so a point read costs at
//!   most one OSS range read per consulted table;
//! * reads consult the memtable, then tables newest-to-oldest;
//! * **size-tiered compaction** merges all tables into one when the run
//!   count exceeds a threshold, dropping tombstones and shadowed versions;
//! * a **MANIFEST** object makes the store reopenable;
//! * every SSTable object carries a whole-object **CRC32** in its trailer,
//!   verified by [`RocksOss::quarantine_corrupt_tables`] — point reads are
//!   range reads and cannot check it, so integrity is a sweep, not a
//!   per-read cost.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use slim_types::bloom::{hash_bytes, BloomFilter};
use slim_types::codec::{Reader, Writer};
use slim_types::{crc, layout, Result, SlimError};

use crate::store::ObjectStore;

const SST_MAGIC: &[u8; 4] = b"SLST";
const SST_VERSION: u8 = 2;
const MANIFEST_MAGIC: &[u8; 4] = b"SLMF";
const MANIFEST_VERSION: u8 = 1;

/// Tuning knobs for a [`RocksOss`] instance.
#[derive(Debug, Clone)]
pub struct RocksConfig {
    /// Flush the memtable once its payload exceeds this many bytes.
    pub memtable_flush_bytes: usize,
    /// Keep one sparse-index entry every this many SSTable entries.
    pub sparse_index_interval: usize,
    /// Compact when the number of SSTables exceeds this.
    pub max_tables: usize,
    /// Bloom filter target false-positive rate.
    pub bloom_fp_rate: f64,
}

impl Default for RocksConfig {
    fn default() -> Self {
        RocksConfig {
            memtable_flush_bytes: 4 * 1024 * 1024,
            sparse_index_interval: 16,
            max_tables: 8,
            bloom_fp_rate: 0.01,
        }
    }
}

impl RocksConfig {
    /// Small thresholds so unit tests exercise flush and compaction.
    pub fn small_for_tests() -> Self {
        RocksConfig {
            memtable_flush_bytes: 512,
            sparse_index_interval: 4,
            max_tables: 3,
            bloom_fp_rate: 0.01,
        }
    }
}

/// In-memory handle to one SSTable object.
struct SstHandle {
    id: u64,
    object_key: String,
    bloom: BloomFilter,
    /// (first key of block, offset of that entry) every `interval` entries,
    /// plus a final sentinel offset = entries region end.
    sparse_index: Vec<(Vec<u8>, u64)>,
    entries_end: u64,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
}

impl SstHandle {
    /// Whether `key` can possibly be in this table.
    fn may_contain(&self, key: &[u8]) -> bool {
        if key < self.min_key.as_slice() || key > self.max_key.as_slice() {
            return false;
        }
        self.bloom.may_contain(hash_bytes(key))
    }

    /// Byte range of the block that could contain `key`.
    fn block_range(&self, key: &[u8]) -> (u64, u64) {
        // partition_point: first sparse entry with first_key > key.
        let idx = self
            .sparse_index
            .partition_point(|(k, _)| k.as_slice() <= key);
        let start = if idx == 0 {
            0
        } else {
            self.sparse_index[idx - 1].1
        };
        let end = self
            .sparse_index
            .get(idx)
            .map(|(_, off)| *off)
            .unwrap_or(self.entries_end);
        (start, end)
    }
}

struct Inner {
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    mem_bytes: usize,
    /// Oldest first; reads walk it in reverse.
    tables: Vec<SstHandle>,
    next_table_id: u64,
}

/// The Rocks-OSS key-value store.
///
/// ```
/// use std::sync::Arc;
/// use slim_oss::rocks::{RocksConfig, RocksOss};
/// use slim_oss::{ObjectStore, Oss};
/// let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
/// let db = RocksOss::create(oss.clone(), "kv/", RocksConfig::default());
/// db.put(b"fp-1", b"container-9").unwrap();
/// db.flush().unwrap();
/// // A reopened handle replays the MANIFEST and sees the data.
/// let db2 = RocksOss::open(oss, "kv/", RocksConfig::default()).unwrap();
/// assert_eq!(db2.get(b"fp-1").unwrap().as_deref(), Some(&b"container-9"[..]));
/// ```
pub struct RocksOss {
    oss: Arc<dyn ObjectStore>,
    prefix: String,
    config: RocksConfig,
    inner: Mutex<Inner>,
}

impl RocksOss {
    /// Create a fresh store under `prefix` (e.g. `"rocks/global-index/"`).
    pub fn create(
        oss: Arc<dyn ObjectStore>,
        prefix: impl Into<String>,
        config: RocksConfig,
    ) -> Self {
        RocksOss {
            oss,
            prefix: prefix.into(),
            config,
            inner: Mutex::new(Inner {
                memtable: BTreeMap::new(),
                mem_bytes: 0,
                tables: Vec::new(),
                next_table_id: 0,
            }),
        }
    }

    /// Reopen a store persisted under `prefix` by replaying the MANIFEST.
    /// A missing manifest yields an empty store (first open).
    pub fn open(
        oss: Arc<dyn ObjectStore>,
        prefix: impl Into<String>,
        config: RocksConfig,
    ) -> Result<Self> {
        let prefix = prefix.into();
        let store = RocksOss::create(oss.clone(), prefix.clone(), config);
        let manifest_key = format!("{prefix}MANIFEST");
        if !oss.exists(&manifest_key)? {
            return Ok(store);
        }
        let buf = oss.get(&manifest_key)?;
        let mut r = Reader::new(&buf, "rocks manifest");
        r.expect_header(MANIFEST_MAGIC, MANIFEST_VERSION)?;
        let next_table_id = r.u64()?;
        let n = r.count(8)?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(r.u64()?);
        }
        r.finish()?;
        {
            let mut inner = store.inner.lock();
            inner.next_table_id = next_table_id;
            inner.tables = store.load_tables(&ids)?;
        }
        Ok(store)
    }

    fn table_key(&self, id: u64) -> String {
        format!("{}sst/{:012}", self.prefix, id)
    }

    /// Insert or overwrite a key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.mem_bytes += key.len() + value.len();
        inner.memtable.insert(key.to_vec(), Some(value.to_vec()));
        if inner.mem_bytes >= self.config.memtable_flush_bytes {
            self.flush_locked(&mut inner)?;
        }
        self.maybe_compact_locked(&mut inner)
    }

    /// Delete a key (tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.mem_bytes += key.len();
        inner.memtable.insert(key.to_vec(), None);
        if inner.mem_bytes >= self.config.memtable_flush_bytes {
            self.flush_locked(&mut inner)?;
        }
        self.maybe_compact_locked(&mut inner)
    }

    /// Point lookup.
    ///
    /// The state mutex is only held while snapshotting the candidate block
    /// ranges — OSS range reads (which sleep under the network model) happen
    /// outside it, so concurrent lookups don't serialize. SSTables are
    /// immutable; if a compaction deletes one mid-read, the lookup retries
    /// against the fresh table set.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        for _attempt in 0..3 {
            // Snapshot the plan under the lock.
            let plan: Vec<(String, u64, u64)> = {
                let inner = self.inner.lock();
                if let Some(entry) = inner.memtable.get(key) {
                    return Ok(entry.clone());
                }
                inner
                    .tables
                    .iter()
                    .rev()
                    .filter(|t| t.may_contain(key))
                    .map(|t| {
                        let (start, end) = t.block_range(key);
                        // saturating_sub: a corrupt sparse index could place
                        // end before start; an empty read then surfaces as a
                        // clean miss instead of an underflow panic.
                        (t.object_key.clone(), start, end.saturating_sub(start))
                    })
                    .collect()
            };
            // Execute it lock-free.
            let mut stale = false;
            let mut result = None;
            for (object_key, start, len) in plan {
                match self.oss.get_range(&object_key, start, len) {
                    Ok(block) => {
                        if let Some(found) = scan_block_for(&block, key)? {
                            result = Some(found);
                            break;
                        }
                    }
                    Err(SlimError::ObjectNotFound(_)) => {
                        // Compacted away mid-read: retry with a new plan.
                        stale = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if stale {
                continue;
            }
            return Ok(result.flatten());
        }
        Err(SlimError::corrupt(
            "rocks get",
            "table set kept changing during lookup (3 retries)",
        ))
    }

    /// All live key/value pairs whose key starts with `prefix`, merged across
    /// the memtable and every table (newest version wins, tombstones hidden).
    /// Reads entire tables — intended for offline (G-node) use.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let inner = self.inner.lock();
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        // One batched sweep over every table's entries region; the results
        // come back oldest-first so newer entries overwrite.
        let ranges: Vec<(String, u64, u64)> = inner
            .tables
            .iter()
            .map(|t| (t.object_key.clone(), 0, t.entries_end))
            .collect();
        for block in self.oss.get_range_many(&ranges) {
            for (k, v) in decode_entries(&block?)? {
                if k.starts_with(prefix) {
                    merged.insert(k, v);
                }
            }
        }
        for (k, v) in &inner.memtable {
            if k.starts_with(prefix) {
                merged.insert(k.clone(), v.clone());
            }
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// Force-flush the memtable to a new SSTable.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)
    }

    /// Force a full compaction (merge all tables into one).
    pub fn compact(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)?;
        self.compact_locked(&mut inner)
    }

    /// Number of SSTables currently live.
    pub fn table_count(&self) -> usize {
        self.inner.lock().tables.len()
    }

    /// Approximate bytes buffered in the memtable.
    pub fn memtable_bytes(&self) -> usize {
        self.inner.lock().mem_bytes
    }

    fn maybe_compact_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.tables.len() > self.config.max_tables {
            self.compact_locked(inner)?;
        }
        Ok(())
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.memtable.is_empty() {
            return Ok(());
        }
        let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            std::mem::take(&mut inner.memtable).into_iter().collect();
        inner.mem_bytes = 0;
        let id = inner.next_table_id;
        inner.next_table_id += 1;
        let handle = self.write_table(id, &entries)?;
        inner.tables.push(handle);
        self.persist_manifest(inner)?;
        Ok(())
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.tables.len() <= 1 {
            return Ok(());
        }
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let old: Vec<SstHandle> = std::mem::take(&mut inner.tables);
        // Compaction reads every input table in full — the dominant I/O of
        // the offline pass — so fetch all entries regions as one batch.
        let ranges: Vec<(String, u64, u64)> = old
            .iter()
            .map(|t| (t.object_key.clone(), 0, t.entries_end))
            .collect();
        for block in self.oss.get_range_many(&ranges) {
            for (k, v) in decode_entries(&block?)? {
                merged.insert(k, v); // newer tables come later → overwrite
            }
        }
        // Tombstones can be dropped entirely: after a full merge nothing
        // older can resurrect the key.
        let live: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            merged.into_iter().filter(|(_, v)| v.is_some()).collect();
        if !live.is_empty() {
            let id = inner.next_table_id;
            inner.next_table_id += 1;
            let handle = self.write_table(id, &live)?;
            inner.tables.push(handle);
        }
        self.persist_manifest(inner)?;
        // The manifest flip above is the commit point: the inputs are dead
        // the moment it lands. Deleting them is garbage collection, so a
        // failed delete must not fail a compaction that already succeeded —
        // stragglers sit unreferenced until `retire_unreferenced_tables`
        // sweeps them on recovery.
        let dead: Vec<String> = old.into_iter().map(|t| t.object_key).collect();
        let _ = self.oss.delete_many(&dead);
        Ok(())
    }

    /// Delete SSTable objects under this store's prefix that the durable
    /// manifest no longer references — leftovers of a compaction whose
    /// post-flip deletes failed. Returns how many objects were retired.
    pub fn retire_unreferenced_tables(&self) -> Result<usize> {
        let inner = self.inner.lock();
        let live: HashSet<&str> = inner.tables.iter().map(|t| t.object_key.as_str()).collect();
        let sst_prefix = format!("{}sst/", self.prefix);
        let dead: Vec<String> = self
            .oss
            .list(&sst_prefix)
            .into_iter()
            .filter(|k| !live.contains(k.as_str()))
            .collect();
        for result in self.oss.delete_many(&dead) {
            result?;
        }
        Ok(dead.len())
    }

    /// Verify the whole-object CRC32 of every live SSTable.
    ///
    /// Corrupted (or missing) tables are dropped from the table set, the
    /// manifest is re-persisted without them, and the damaged bytes are
    /// parked under [`layout::QUARANTINE_PREFIX`] for forensics. Returns the
    /// original object keys of every quarantined table; the entries they
    /// held are *lost* from the index and the caller is expected to
    /// re-derive them from primary data (container metadata).
    pub fn quarantine_corrupt_tables(&self) -> Result<Vec<String>> {
        let mut inner = self.inner.lock();
        let keys: Vec<String> = inner.tables.iter().map(|t| t.object_key.clone()).collect();
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut bad = Vec::new();
        for (key, object) in keys.iter().zip(self.oss.get_many(&keys)) {
            match object {
                Ok(buf) if sst_object_intact(&buf) => {}
                Ok(buf) => {
                    self.oss.put(&layout::quarantine_key(key), buf)?;
                    self.oss.delete(key)?;
                    bad.push(key.clone());
                }
                Err(SlimError::ObjectNotFound(_)) => bad.push(key.clone()),
                Err(e) => return Err(e),
            }
        }
        if !bad.is_empty() {
            inner.tables.retain(|t| !bad.contains(&t.object_key));
            self.persist_manifest(&inner)?;
        }
        Ok(bad)
    }

    fn persist_manifest(&self, inner: &Inner) -> Result<()> {
        let mut w = Writer::with_header(MANIFEST_MAGIC, MANIFEST_VERSION);
        w.u64(inner.next_table_id);
        w.u32(inner.tables.len() as u32);
        for t in &inner.tables {
            w.u64(t.id);
        }
        self.oss
            .put(&format!("{}MANIFEST", self.prefix), w.freeze())
    }

    /// Serialize sorted entries into an SSTable object and return its handle.
    ///
    /// Layout: entries region | footer | u32 crc32 | u64 footer_offset.
    /// Footer: header | min/max key | entry spans of sparse index | bloom.
    /// The CRC covers everything before the 12-byte trailer; the trailing
    /// footer offset itself is validated structurally on load (bounds check
    /// plus footer magic), since the CRC cannot cover bytes written after it.
    fn write_table(&self, id: u64, entries: &[(Vec<u8>, Option<Vec<u8>>)]) -> Result<SstHandle> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut body = Writer::new();
        let mut sparse_index = Vec::new();
        let mut bloom = BloomFilter::with_rate(entries.len(), self.config.bloom_fp_rate);
        for (i, (k, v)) in entries.iter().enumerate() {
            if i % self.config.sparse_index_interval == 0 {
                sparse_index.push((k.clone(), body.len() as u64));
            }
            bloom.insert(hash_bytes(k));
            encode_entry(&mut body, k, v.as_deref());
        }
        let entries_end = body.len() as u64;
        let min_key = entries.first().map(|(k, _)| k.clone()).unwrap_or_default();
        let max_key = entries.last().map(|(k, _)| k.clone()).unwrap_or_default();

        let mut footer = Writer::with_header(SST_MAGIC, SST_VERSION);
        footer.bytes(&min_key);
        footer.bytes(&max_key);
        footer.u32(sparse_index.len() as u32);
        for (k, off) in &sparse_index {
            footer.bytes(k);
            footer.u64(*off);
        }
        footer.bytes(&bloom.encode());

        let body = body.freeze();
        let footer = footer.freeze();
        let mut object = bytes::BytesMut::with_capacity(body.len() + footer.len() + 12);
        object.extend_from_slice(&body);
        object.extend_from_slice(&footer);
        let checksum = crc::crc32(&object);
        object.extend_from_slice(&checksum.to_le_bytes());
        object.extend_from_slice(&entries_end.to_le_bytes());
        let object_key = self.table_key(id);
        self.oss.put(&object_key, object.freeze())?;
        Ok(SstHandle {
            id,
            object_key,
            bloom,
            sparse_index,
            entries_end,
            min_key,
            max_key,
        })
    }

    /// Load table handles for `ids`, in order, by reading object footers.
    ///
    /// The OSS traffic is batched into three sweeps across all tables — the
    /// length probes, the footer-offset words, and the footers themselves —
    /// so reopening a store with many runs pays three round-trip latencies
    /// instead of three per table.
    fn load_tables(&self, ids: &[u64]) -> Result<Vec<SstHandle>> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let keys: Vec<String> = ids.iter().map(|id| self.table_key(*id)).collect();
        let mut totals = Vec::with_capacity(ids.len());
        for (key, total) in keys.iter().zip(self.oss.len_many(&keys)) {
            let total = total?.ok_or_else(|| SlimError::ObjectNotFound(key.clone()))?;
            if total < 12 {
                return Err(SlimError::corrupt("sstable", "object too small"));
            }
            totals.push(total);
        }
        let tail_ranges: Vec<(String, u64, u64)> = keys
            .iter()
            .zip(&totals)
            .map(|(key, total)| (key.clone(), total - 8, 8))
            .collect();
        let mut entries_ends = Vec::with_capacity(ids.len());
        for (tail, total) in self
            .oss
            .get_range_many(&tail_ranges)
            .into_iter()
            .zip(&totals)
        {
            let tail = tail?;
            let tail: [u8; 8] = tail[..]
                .try_into()
                .map_err(|_| SlimError::corrupt("sstable", "short footer length word"))?;
            let entries_end = u64::from_le_bytes(tail);
            if entries_end > total - 12 {
                return Err(SlimError::corrupt("sstable", "bad footer offset"));
            }
            entries_ends.push(entries_end);
        }
        let footer_ranges: Vec<(String, u64, u64)> = keys
            .iter()
            .zip(&totals)
            .zip(&entries_ends)
            .map(|((key, total), end)| (key.clone(), *end, total - 12 - end))
            .collect();
        let footers = self.oss.get_range_many(&footer_ranges);
        let mut handles = Vec::with_capacity(ids.len());
        for (((id, key), entries_end), footer) in
            ids.iter().zip(keys).zip(entries_ends).zip(footers)
        {
            handles.push(parse_sst_footer(*id, key, entries_end, &footer?)?);
        }
        Ok(handles)
    }
}

/// Whole-object SSTable integrity check: the stored CRC32 must match the
/// bytes before the 12-byte trailer, and the trailing footer offset must
/// stay inside them. Truncation, bit flips and short objects all fail here.
fn sst_object_intact(buf: &[u8]) -> bool {
    if buf.len() < 12 {
        return false;
    }
    let crc_at = buf.len() - 12;
    let stored = u32::from_le_bytes(buf[crc_at..crc_at + 4].try_into().unwrap());
    let entries_end = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
    entries_end <= crc_at as u64 && crc::crc32(&buf[..crc_at]) == stored
}

/// Parse an SSTable footer region into a handle.
fn parse_sst_footer(
    id: u64,
    object_key: String,
    entries_end: u64,
    footer: &[u8],
) -> Result<SstHandle> {
    let mut r = Reader::new(footer, "sstable footer");
    r.expect_header(SST_MAGIC, SST_VERSION)?;
    let min_key = r.bytes()?;
    let max_key = r.bytes()?;
    let n = r.count(4 + 8)?;
    let mut sparse_index = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.bytes()?;
        let off = r.u64()?;
        sparse_index.push((k, off));
    }
    let bloom_bytes = r.bytes()?;
    r.finish()?;
    let bloom = BloomFilter::decode(&bloom_bytes)
        .ok_or_else(|| SlimError::corrupt("sstable", "bad bloom encoding"))?;
    Ok(SstHandle {
        id,
        object_key,
        bloom,
        sparse_index,
        entries_end,
        min_key,
        max_key,
    })
}

fn encode_entry(w: &mut Writer, key: &[u8], value: Option<&[u8]>) {
    w.bytes(key);
    match value {
        Some(v) => {
            w.u8(1);
            w.bytes(v);
        }
        None => {
            w.u8(0);
        }
    }
}

/// Decode all entries in a block.
fn decode_entries(block: &[u8]) -> Result<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
    let mut r = Reader::new(block, "sstable block");
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let key = r.bytes()?;
        let value = match r.u8()? {
            0 => None,
            _ => Some(r.bytes()?),
        };
        out.push((key, value));
    }
    Ok(out)
}

/// Scan a block for `key`. Returns `Some(Some(v))` if live, `Some(None)` if
/// tombstoned, `None` if absent from the block.
fn scan_block_for(block: &[u8], key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
    let mut r = Reader::new(block, "sstable block");
    while r.remaining() > 0 {
        let k = r.bytes()?;
        let value = match r.u8()? {
            0 => None,
            _ => Some(r.bytes()?),
        };
        if k == key {
            return Ok(Some(value));
        }
        if k.as_slice() > key {
            return Ok(None); // sorted: passed the slot
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Oss;

    fn new_store() -> RocksOss {
        let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        RocksOss::create(oss, "rocks/", RocksConfig::small_for_tests())
    }

    #[test]
    fn put_get_memtable_only() {
        let db = new_store();
        db.put(b"k1", b"v1").unwrap();
        assert_eq!(db.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(db.get(b"k2").unwrap(), None);
    }

    #[test]
    fn get_after_flush_reads_sstable() {
        let db = new_store();
        for i in 0..50u32 {
            db.put(
                format!("key{i:03}").as_bytes(),
                format!("val{i}").as_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
        assert!(db.table_count() >= 1);
        assert_eq!(db.memtable_bytes(), 0);
        for i in 0..50u32 {
            assert_eq!(
                db.get(format!("key{i:03}").as_bytes()).unwrap(),
                Some(format!("val{i}").into_bytes()),
                "key{i}"
            );
        }
        assert_eq!(db.get(b"key999").unwrap(), None);
    }

    #[test]
    fn newer_write_shadows_older_table() {
        let db = new_store();
        db.put(b"k", b"old").unwrap();
        db.flush().unwrap();
        db.put(b"k", b"new").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn tombstones_hide_older_values() {
        let db = new_store();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        db.compact().unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
    }

    #[test]
    fn compaction_merges_and_prunes() {
        let db = new_store();
        for round in 0..5u32 {
            for i in 0..20u32 {
                db.put(
                    format!("key{i:03}").as_bytes(),
                    format!("r{round}v{i}").as_bytes(),
                )
                .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact().unwrap();
        assert_eq!(db.table_count(), 1);
        for i in 0..20u32 {
            assert_eq!(
                db.get(format!("key{i:03}").as_bytes()).unwrap(),
                Some(format!("r4v{i}").into_bytes())
            );
        }
    }

    #[test]
    fn auto_flush_and_auto_compact() {
        let db = new_store();
        // 512-byte memtable + 3-table cap: a few hundred writes must trigger
        // both automatically.
        for i in 0..400u32 {
            db.put(format!("key{i:06}").as_bytes(), &[7u8; 32]).unwrap();
        }
        assert!(db.table_count() <= RocksConfig::small_for_tests().max_tables + 1);
        for i in (0..400u32).step_by(37) {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(vec![7u8; 32])
            );
        }
    }

    #[test]
    fn scan_prefix_merges_layers() {
        let db = new_store();
        db.put(b"a/1", b"1").unwrap();
        db.put(b"a/2", b"2").unwrap();
        db.put(b"b/1", b"x").unwrap();
        db.flush().unwrap();
        db.put(b"a/2", b"2new").unwrap();
        db.delete(b"a/1").unwrap();
        db.put(b"a/3", b"3").unwrap();
        let rows = db.scan_prefix(b"a/").unwrap();
        assert_eq!(
            rows,
            vec![
                (b"a/2".to_vec(), b"2new".to_vec()),
                (b"a/3".to_vec(), b"3".to_vec()),
            ]
        );
    }

    #[test]
    fn reopen_from_manifest() {
        let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        {
            let db = RocksOss::create(oss.clone(), "r/", RocksConfig::small_for_tests());
            for i in 0..60u32 {
                db.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
        }
        let db = RocksOss::open(oss, "r/", RocksConfig::small_for_tests()).unwrap();
        for i in 0..60u32 {
            assert_eq!(
                db.get(format!("k{i:03}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "k{i:03} after reopen"
            );
        }
    }

    #[test]
    fn reopen_with_many_tables_loads_all_handles() {
        let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        {
            let db = RocksOss::create(oss.clone(), "m/", RocksConfig::small_for_tests());
            for t in 0..3u32 {
                for i in 0..10u32 {
                    db.put(
                        format!("t{t}k{i}").as_bytes(),
                        format!("v{t}.{i}").as_bytes(),
                    )
                    .unwrap();
                }
                db.flush().unwrap();
            }
        }
        let db = RocksOss::open(oss, "m/", RocksConfig::small_for_tests()).unwrap();
        assert_eq!(db.table_count(), 3, "all runs loaded via the batched path");
        for t in 0..3u32 {
            for i in 0..10u32 {
                assert_eq!(
                    db.get(format!("t{t}k{i}").as_bytes()).unwrap(),
                    Some(format!("v{t}.{i}").into_bytes())
                );
            }
        }
    }

    #[test]
    fn compaction_survives_failed_input_deletes_and_recovery_retires_them() {
        // Regression: a failed delete of a dead input table used to fail the
        // whole compaction, even though the merged run and its manifest were
        // already durable — and the undeleted object leaked forever.
        let oss = Oss::in_memory();
        let store: Arc<dyn ObjectStore> = Arc::new(oss.clone());
        let db = RocksOss::create(store, "r/", RocksConfig::small_for_tests());
        for t in 0..2u32 {
            for i in 0..10u32 {
                db.put(format!("t{t}k{i}").as_bytes(), b"v").unwrap();
            }
            db.flush().unwrap();
        }
        assert_eq!(db.table_count(), 2);
        // Ops on the sst prefix during compact: 2 input reads, 1 merged-run
        // write, then the input deletes. Fail the first delete.
        oss.inject_fault(crate::fault::FaultPlan::NthOnPrefix {
            prefix: "r/sst/".into(),
            nth: 4,
        });
        db.compact().unwrap();
        oss.clear_faults();
        assert_eq!(db.table_count(), 1);
        // The undeleted input is unreferenced by the durable manifest; the
        // recovery sweep retires it.
        assert_eq!(oss.list("r/sst/").len(), 2);
        assert_eq!(db.retire_unreferenced_tables().unwrap(), 1);
        assert_eq!(oss.list("r/sst/").len(), 1);
        assert_eq!(db.retire_unreferenced_tables().unwrap(), 0, "idempotent");
        for t in 0..2u32 {
            for i in 0..10u32 {
                assert_eq!(
                    db.get(format!("t{t}k{i}").as_bytes()).unwrap(),
                    Some(b"v".to_vec())
                );
            }
        }
    }

    #[test]
    fn oversized_manifest_table_count_is_corrupt() {
        let oss = Oss::in_memory();
        let store: Arc<dyn ObjectStore> = Arc::new(oss.clone());
        let db = RocksOss::create(store.clone(), "m/", RocksConfig::small_for_tests());
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        // Header (5), next table id (8), then the table count.
        let mut manifest = oss.get("m/MANIFEST").unwrap().to_vec();
        manifest[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        oss.put("m/MANIFEST", manifest.into()).unwrap();
        let reopened = RocksOss::open(store, "m/", RocksConfig::small_for_tests());
        assert!(matches!(reopened, Err(SlimError::Corrupt { .. })));
    }

    #[test]
    fn corrupt_sstable_is_quarantined_not_served() {
        let oss = Oss::in_memory();
        let store: Arc<dyn ObjectStore> = Arc::new(oss.clone());
        let db = RocksOss::create(store, "q/", RocksConfig::small_for_tests());
        for i in 0..20u32 {
            db.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.table_count(), 1);
        assert_eq!(
            db.quarantine_corrupt_tables().unwrap(),
            Vec::<String>::new(),
            "intact table passes the sweep"
        );
        let key = oss.list("q/sst/")[0].clone();
        let mut buf = oss.get(&key).unwrap().to_vec();
        buf[10] ^= 0x10;
        oss.put(&key, bytes::Bytes::from(buf)).unwrap();
        let bad = db.quarantine_corrupt_tables().unwrap();
        assert_eq!(bad, vec![key.clone()]);
        assert_eq!(db.table_count(), 0);
        assert!(oss.exists(&layout::quarantine_key(&key)).unwrap());
        assert!(!oss.exists(&key).unwrap());
        // The drop is durable: a reopen agrees.
        let db2 = RocksOss::open(Arc::new(oss), "q/", RocksConfig::small_for_tests()).unwrap();
        assert_eq!(db2.table_count(), 0);
        assert_eq!(db2.get(b"k00").unwrap(), None);
    }

    #[test]
    fn truncated_sstable_fails_the_integrity_sweep() {
        let oss = Oss::in_memory();
        let store: Arc<dyn ObjectStore> = Arc::new(oss.clone());
        let db = RocksOss::create(store, "t/", RocksConfig::small_for_tests());
        for i in 0..10u32 {
            db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        let key = oss.list("t/sst/")[0].clone();
        let buf = oss.get(&key).unwrap();
        oss.put(&key, buf.slice(..buf.len() - 3)).unwrap();
        assert_eq!(db.quarantine_corrupt_tables().unwrap(), vec![key]);
        assert_eq!(db.table_count(), 0);
    }

    #[test]
    fn open_missing_manifest_is_empty_store() {
        let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let db = RocksOss::open(oss, "fresh/", RocksConfig::default()).unwrap();
        assert_eq!(db.get(b"anything").unwrap(), None);
        assert_eq!(db.table_count(), 0);
    }

    #[test]
    fn large_random_workload_matches_btreemap_model() {
        let mut rng = slim_types::rng::Rng::seed_from_u64(7);
        let db = new_store();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..2000 {
            let key = format!("key{:04}", rng.gen_range(0..300)).into_bytes();
            match rng.gen_range(0..10) {
                0..=6 => {
                    let val = format!("v{}", rng.next_u64() as u32).into_bytes();
                    db.put(&key, &val).unwrap();
                    model.insert(key, val);
                }
                7..=8 => {
                    db.delete(&key).unwrap();
                    model.remove(&key);
                }
                _ => {
                    assert_eq!(db.get(&key).unwrap(), model.get(&key).cloned());
                }
            }
        }
        db.compact().unwrap();
        for (k, v) in &model {
            assert_eq!(db.get(k).unwrap().as_deref(), Some(v.as_slice()));
        }
        let all = db.scan_prefix(b"key").unwrap();
        assert_eq!(all.len(), model.len());
    }
}
