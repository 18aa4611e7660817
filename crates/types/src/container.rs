//! Containers — the physical storage unit on OSS.
//!
//! Non-duplicate chunks are aggregated into fixed-capacity containers
//! (§III-B). A container's *data object* is the concatenation of per-chunk
//! *stored* payloads — each chunk independently LZ-compressed when the
//! container is sealed, if profitable (see [`crate::compress`]), stored raw
//! otherwise; its
//! *metadata* records each chunk's fingerprint, stored offset and length,
//! raw (uncompressed) length, and deletion state, plus the stale-chunk
//! proportion used by sparse container compaction (§V-B) and reverse
//! deduplication (§VI-A). Metadata is stored as a separate OSS object so the
//! G-node can mark chunks deleted without touching payload bytes.
//!
//! An entry is compressed iff `len < raw_len`; `len == raw_len` means the
//! stored bytes *are* the chunk. There is no per-chunk tag byte, and every
//! consumer of payload bytes goes through [`ContainerEntry::payload_from`],
//! which validates bounds with checked arithmetic and returns
//! [`SlimError::Corrupt`] — never panics — on a malformed entry.
//!
//! Capacity accounting in [`ContainerBuilder`] is deliberately in *raw*
//! bytes: container sealing boundaries, and therefore container ids and
//! every dedup statistic (containers read, skip hits, logical bytes), are
//! byte-for-byte identical whether compression is on or off. Only the
//! stored object shrinks.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::codec::{Reader, Writer};
use crate::compress;
use crate::error::{Result, SlimError};
use crate::fingerprint::Fingerprint;

/// Globally unique, monotonically increasing container identifier.
///
/// Monotonicity matters: reverse deduplication keeps the copy in the
/// *newer* container (larger id) and deletes the copy in the older one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u64);

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Metadata for one chunk stored in a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerEntry {
    /// Fingerprint of the chunk (always of the *raw* payload).
    pub fp: Fingerprint,
    /// Byte offset of the stored payload within the container data object.
    pub offset: u32,
    /// Stored payload length in bytes (compressed size when compressed).
    pub len: u32,
    /// Raw (uncompressed) chunk length in bytes. Equal to `len` for
    /// uncompressed entries; strictly greater for compressed ones.
    pub raw_len: u32,
    /// Set by reverse deduplication / SCC when this copy is superseded; the
    /// payload bytes remain until the container is rewritten.
    pub deleted: bool,
}

impl ContainerEntry {
    /// Whether the stored bytes are LZ-compressed.
    pub fn is_compressed(&self) -> bool {
        self.len < self.raw_len
    }

    /// The chunk's raw payload, extracted (and decompressed if needed) from
    /// the container data object.
    ///
    /// All arithmetic is checked in `u64`: an entry whose `offset + len`
    /// overflows `u32` or falls outside `data` — a bit-flipped meta that
    /// passed no CRC, say — yields [`SlimError::Corrupt`], never a slice
    /// panic. A compressed entry additionally must decompress to exactly
    /// `raw_len` bytes.
    pub fn payload_from(&self, data: &bytes::Bytes) -> Result<bytes::Bytes> {
        let start = self.offset as u64;
        let end = start + self.len as u64; // u32 + u32 cannot overflow u64
        if end > data.len() as u64 {
            return Err(SlimError::corrupt(
                "container entry",
                format!(
                    "entry {} spans {start}..{end} but container data is {} bytes",
                    self.fp.short_hex(),
                    data.len()
                ),
            ));
        }
        if self.len > self.raw_len {
            return Err(SlimError::corrupt(
                "container entry",
                format!(
                    "entry {} stored length {} exceeds raw length {}",
                    self.fp.short_hex(),
                    self.len,
                    self.raw_len
                ),
            ));
        }
        let stored = data.slice(start as usize..end as usize);
        if self.is_compressed() {
            Ok(bytes::Bytes::from(compress::decompress(
                &stored,
                self.raw_len as usize,
            )?))
        } else {
            Ok(stored)
        }
    }
}

const META_MAGIC: &[u8; 4] = b"SLCM";
/// v1: uncompressed entries (`fp, offset, len, deleted`), no `raw_len` on
/// the wire. v2 adds a `raw_len` per entry. Decode accepts both; encode
/// always writes v2.
const META_VERSION_V1: u8 = 1;
const META_VERSION: u8 = 2;

/// Metadata of one container.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerMeta {
    /// The container this metadata describes.
    pub id: ContainerId,
    /// Entries in physical (offset) order.
    pub entries: Vec<ContainerEntry>,
    /// Total *stored* payload bytes when the container was sealed (including
    /// bytes of chunks that were later marked deleted).
    pub data_len: u32,
}

impl ContainerMeta {
    /// Metadata for a freshly sealed container.
    pub fn new(id: ContainerId, entries: Vec<ContainerEntry>, data_len: u32) -> Self {
        ContainerMeta {
            id,
            entries,
            data_len,
        }
    }

    /// Number of chunks, including deleted ones.
    pub fn total_chunks(&self) -> usize {
        self.entries.len()
    }

    /// Number of live (not deleted) chunks.
    pub fn live_chunks(&self) -> usize {
        self.entries.iter().filter(|e| !e.deleted).count()
    }

    /// Number of chunks marked deleted.
    pub fn deleted_chunks(&self) -> usize {
        self.entries.len() - self.live_chunks()
    }

    /// *Stored* bytes of live payload (what the live chunks occupy on OSS).
    pub fn live_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| !e.deleted)
            .map(|e| e.len as u64)
            .sum()
    }

    /// *Raw* (uncompressed) bytes of live payload — the logical size the
    /// live chunks decompress to.
    pub fn live_raw_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| !e.deleted)
            .map(|e| e.raw_len as u64)
            .sum()
    }

    /// Stored bytes of deleted payload still physically present.
    pub fn stale_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.deleted)
            .map(|e| e.len as u64)
            .sum()
    }

    /// Fraction of chunks marked deleted (the §VI-A rewrite trigger).
    pub fn deleted_ratio(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.deleted_chunks() as f64 / self.entries.len() as f64
    }

    /// Find the live entry for `fp`, if present.
    pub fn find_live(&self, fp: &Fingerprint) -> Option<&ContainerEntry> {
        self.entries.iter().find(|e| !e.deleted && e.fp == *fp)
    }

    /// Find any entry for `fp` (live or deleted).
    pub fn find(&self, fp: &Fingerprint) -> Option<&ContainerEntry> {
        self.entries.iter().find(|e| e.fp == *fp)
    }

    /// Mark the entry for `fp` deleted. Returns whether an entry flipped
    /// from live to deleted.
    pub fn mark_deleted(&mut self, fp: &Fingerprint) -> bool {
        for e in &mut self.entries {
            if e.fp == *fp && !e.deleted {
                e.deleted = true;
                return true;
            }
        }
        false
    }

    /// Map fingerprint → (stored offset, stored len) for all live entries.
    pub fn live_map(&self) -> HashMap<Fingerprint, (u32, u32)> {
        self.entries
            .iter()
            .filter(|e| !e.deleted)
            .map(|e| (e.fp, (e.offset, e.len)))
            .collect()
    }

    /// Serialize to the OSS wire format (always the current version).
    pub fn encode(&self) -> bytes::Bytes {
        let mut w = Writer::with_header(META_MAGIC, META_VERSION);
        w.u64(self.id.0);
        w.u32(self.data_len);
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            w.fingerprint(&e.fp);
            w.u32(e.offset);
            w.u32(e.len);
            w.u32(e.raw_len);
            w.u8(u8::from(e.deleted));
        }
        w.freeze()
    }

    /// Deserialize from the OSS wire format.
    ///
    /// Accepts v1 (pre-compression; `raw_len` is implied equal to `len`)
    /// and v2 metas, and validates the structural invariants at the
    /// boundary: every entry lies within `data_len` (checked in `u64`, so a
    /// poisoned `offset + len` cannot wrap) and stores no more than its raw
    /// length. A violating meta decodes to [`SlimError::Corrupt`] instead
    /// of handing poisoned entries to payload-slicing callers.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf, "container meta");
        let version = r.sniff_header(META_MAGIC)?;
        if version != META_VERSION_V1 && version != META_VERSION {
            return Err(SlimError::corrupt(
                "container meta",
                format!(
                    "unsupported format version {version}, expected {META_VERSION_V1} or {META_VERSION}"
                ),
            ));
        }
        let id = ContainerId(r.u64()?);
        let data_len = r.u32()?;
        // A v1 entry (no raw_len) is the shorter of the two layouts.
        let n = r.count(20 + 4 + 4 + 1)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let fp = r.fingerprint()?;
            let offset = r.u32()?;
            let len = r.u32()?;
            let raw_len = if version >= META_VERSION {
                r.u32()?
            } else {
                len
            };
            let deleted = r.u8()? != 0;
            if offset as u64 + len as u64 > data_len as u64 {
                return Err(SlimError::corrupt(
                    "container meta",
                    format!(
                        "entry {} spans {offset}+{len} beyond data_len {data_len}",
                        fp.short_hex()
                    ),
                ));
            }
            if len > raw_len {
                return Err(SlimError::corrupt(
                    "container meta",
                    format!(
                        "entry {} stored length {len} exceeds raw length {raw_len}",
                        fp.short_hex()
                    ),
                ));
            }
            entries.push(ContainerEntry {
                fp,
                offset,
                len,
                raw_len,
                deleted,
            });
        }
        r.finish()?;
        Ok(ContainerMeta {
            id,
            entries,
            data_len,
        })
    }
}

/// Per-container compression accounting, produced by
/// [`ContainerBuilder::seal_with`] and folded into telemetry (`compress.*`)
/// by the backup path. All zero when the builder's compression is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Chunks offered to the compressor.
    pub chunks: u64,
    /// Raw payload bytes offered.
    pub raw_bytes: u64,
    /// Bytes actually stored (compressed where profitable).
    pub stored_bytes: u64,
    /// Chunks stored raw because compression was not strictly smaller.
    pub incompressible: u64,
    /// CPU time spent in the compressor, summed over the seal's threads.
    pub time: Duration,
}

impl CompressionStats {
    /// Accumulate another container's stats.
    pub fn merge(&mut self, other: &CompressionStats) {
        self.chunks += other.chunks;
        self.raw_bytes += other.raw_bytes;
        self.stored_bytes += other.stored_bytes;
        self.incompressible += other.incompressible;
        self.time += other.time;
    }
}

/// Raw bytes a seal thread must have to itself before the seal fans out:
/// below this a thread's start-up costs more than the compression it takes
/// over.
const MIN_FAN_BYTES: usize = 256 * 1024;

/// An in-memory container being filled by a backup job (§IV-A Step 3).
///
/// When [`ContainerBuilder::is_full`] reports true the caller seals it,
/// persists the data object and metadata to OSS, and starts a new one.
/// The builder buffers **raw** payloads and tracks capacity in raw bytes;
/// compression happens once, in [`ContainerBuilder::seal_with`], so pushing
/// costs one copy and the container boundaries a stream produces are
/// identical with compression on or off.
pub struct ContainerBuilder {
    id: ContainerId,
    capacity: usize,
    /// Raw payloads, back to back.
    data: Vec<u8>,
    /// One entry per payload; `offset`/`len` describe `data` (raw) until
    /// the seal rewrites them to the stored layout.
    entries: Vec<ContainerEntry>,
    compress: bool,
}

impl ContainerBuilder {
    /// Start a new container with the given identity and *raw* byte
    /// capacity. Compression is off; see [`ContainerBuilder::with_compression`].
    pub fn new(id: ContainerId, capacity: usize) -> Self {
        ContainerBuilder {
            id,
            capacity,
            data: Vec::with_capacity(capacity),
            entries: Vec::new(),
            compress: false,
        }
    }

    /// Builder-style toggle for per-chunk compression (gated by
    /// `SlimConfig::compression` at the production call sites).
    pub fn with_compression(mut self, on: bool) -> Self {
        self.compress = on;
        self
    }

    /// The id this container will be sealed under.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// Raw payload bytes currently buffered (the capacity-accounting size).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no chunk has been added yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether adding `next_len` more *raw* bytes would exceed capacity.
    pub fn would_overflow(&self, next_len: usize) -> bool {
        !self.entries.is_empty() && self.data.len() + next_len > self.capacity
    }

    /// Whether the container has reached capacity (in raw bytes).
    pub fn is_full(&self) -> bool {
        self.data.len() >= self.capacity
    }

    /// Append one chunk payload (raw bytes).
    pub fn push(&mut self, fp: Fingerprint, payload: &[u8]) {
        assert!(
            self.data.len() as u64 + payload.len() as u64 <= u32::MAX as u64,
            "container data object exceeds the u32 offset space"
        );
        self.entries.push(ContainerEntry {
            fp,
            offset: self.data.len() as u32,
            len: payload.len() as u32,
            raw_len: payload.len() as u32,
            deleted: false,
        });
        self.data.extend_from_slice(payload);
    }

    /// Seal on the calling thread: produce the data object and its metadata.
    pub fn seal(self) -> (bytes::Bytes, ContainerMeta) {
        let (data, meta, _) = self.seal_with(1);
        (data, meta)
    }

    /// Seal: compress each payload where strictly profitable (when
    /// compression is on), lay the stored payloads out back to back, and
    /// produce the data object, its metadata and the compression accounting.
    ///
    /// Chunks compress independently, so the work is spread over up to
    /// `fanout` scoped threads (the caller's included) and reassembled in
    /// entry order: the result is byte-identical for every `fanout`.
    pub fn seal_with(mut self, fanout: usize) -> (bytes::Bytes, ContainerMeta, CompressionStats) {
        let mut stats = CompressionStats::default();
        if self.compress {
            let (packed, time) = compress_entries(&self.data, &self.entries, fanout);
            stats.chunks = self.entries.len() as u64;
            stats.raw_bytes = self.data.len() as u64;
            stats.time = time;
            // Compact in place: a stored payload is never longer than its
            // raw form, so writing entry `i` cannot reach entry `i + 1`.
            let mut at = 0usize;
            for (entry, packed) in self.entries.iter_mut().zip(packed) {
                let raw = entry.offset as usize..(entry.offset + entry.len) as usize;
                entry.offset = at as u32;
                match packed {
                    Some(c) => {
                        entry.len = c.len() as u32;
                        self.data[at..at + c.len()].copy_from_slice(&c);
                    }
                    None => {
                        stats.incompressible += 1;
                        if raw.start != at {
                            self.data.copy_within(raw, at);
                        }
                    }
                }
                at += entry.len as usize;
            }
            self.data.truncate(at);
            stats.stored_bytes = at as u64;
        }
        let data_len = self.data.len() as u32;
        (
            bytes::Bytes::from(self.data),
            ContainerMeta::new(self.id, self.entries, data_len),
            stats,
        )
    }
}

/// Compress every (raw-layout) entry of `data` on up to `fanout` threads.
/// Returns the per-entry results in entry order and the compressor time
/// summed over the threads.
fn compress_entries(
    data: &[u8],
    entries: &[ContainerEntry],
    fanout: usize,
) -> (Vec<Option<Vec<u8>>>, Duration) {
    // Threads pull the next entry off a shared cursor, so a run of slow
    // (compressible) chunks spreads itself.
    let cursor = AtomicUsize::new(0);
    let pack = || {
        let t = Instant::now();
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(e) = entries.get(i) else { break };
            let raw = &data[e.offset as usize..(e.offset + e.len) as usize];
            done.push((i, compress::compress(raw)));
        }
        (done, t.elapsed())
    };
    let threads = fanout.min(data.len() / MIN_FAN_BYTES).max(1);
    let results = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(pack)).collect();
        let mut results = vec![pack()];
        for h in helpers {
            results.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        results
    });
    let mut packed = vec![None; entries.len()];
    let mut time = Duration::ZERO;
    for (done, elapsed) in results {
        time += elapsed;
        for (i, c) in done {
            packed[i] = c;
        }
    }
    (packed, time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::bytes as noise;

    fn fp(b: u8) -> Fingerprint {
        Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    #[test]
    fn builder_tracks_offsets() {
        let mut b = ContainerBuilder::new(ContainerId(1), 1024);
        b.push(fp(1), &[0u8; 100]);
        b.push(fp(2), &[0u8; 50]);
        let (data, meta) = b.seal();
        let (e1, e2) = (meta.entries[0], meta.entries[1]);
        assert_eq!(e1.offset, 0);
        assert_eq!(e1.len, 100);
        assert_eq!(e1.raw_len, 100);
        assert!(!e1.is_compressed());
        assert_eq!(e2.offset, 100);
        assert_eq!(e2.len, 50);
        assert_eq!(data.len(), 150);
        assert_eq!(meta.data_len, 150);
        assert_eq!(meta.total_chunks(), 2);
    }

    #[test]
    fn overflow_check() {
        let mut b = ContainerBuilder::new(ContainerId(1), 128);
        assert!(!b.would_overflow(4096), "empty container accepts any chunk");
        b.push(fp(1), &[0u8; 100]);
        assert!(b.would_overflow(29));
        assert!(!b.would_overflow(28));
        assert!(!b.is_full());
        b.push(fp(2), &[0u8; 28]);
        assert!(b.is_full());
    }

    #[test]
    fn compressing_builder_shrinks_storage_and_roundtrips() {
        let payload: Vec<u8> = b"slimstore ".iter().copied().cycle().take(4096).collect();
        let mut b = ContainerBuilder::new(ContainerId(7), 1 << 20).with_compression(true);
        b.push(fp(1), &payload);
        let (data, meta, stats) = b.seal_with(1);
        let e = meta.entries[0];
        assert!(e.is_compressed());
        assert_eq!(e.raw_len as usize, payload.len());
        assert!((e.len as usize) < payload.len());
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.raw_bytes, payload.len() as u64);
        assert_eq!(stats.stored_bytes, data.len() as u64);
        assert!(stats.stored_bytes < stats.raw_bytes);
        assert_eq!(stats.incompressible, 0);
        assert_eq!(data.len() as u32, meta.data_len);
        let back = e.payload_from(&data).unwrap();
        assert_eq!(&back[..], &payload[..]);
    }

    #[test]
    fn incompressible_chunks_stored_raw() {
        let payload = noise(3, 2048);
        let mut b = ContainerBuilder::new(ContainerId(8), 1 << 20).with_compression(true);
        b.push(fp(1), &payload);
        let (data, meta, stats) = b.seal_with(1);
        assert!(!meta.entries[0].is_compressed());
        assert_eq!(meta.entries[0].len, meta.entries[0].raw_len);
        assert_eq!(stats.incompressible, 1);
        assert_eq!(meta.entries[0].payload_from(&data).unwrap(), payload);
    }

    #[test]
    fn capacity_accounting_is_raw_not_stored() {
        // Highly compressible chunks must still seal at the same raw
        // boundary as uncompressed ones: boundaries (and so container ids
        // and dedup statistics) are invariant under the compression knob.
        let payload = vec![7u8; 100];
        let mut on = ContainerBuilder::new(ContainerId(1), 128).with_compression(true);
        on.push(fp(1), &payload);
        assert_eq!(on.len(), 100, "capacity accounting sees raw bytes");
        assert!(on.would_overflow(29));
        assert!(!on.would_overflow(28));
        let mut off = ContainerBuilder::new(ContainerId(1), 128);
        off.push(fp(1), &payload);
        assert_eq!(on.would_overflow(29), off.would_overflow(29));
        assert_eq!(on.would_overflow(28), off.would_overflow(28));
        assert_eq!(on.is_full(), off.is_full());
        assert!(on.seal().0.len() < 100, "payload compresses");
    }

    /// A container's worth of mixed payloads: compressible, incompressible
    /// and tiny ones interleaved, so the seal's in-place compaction moves
    /// raw payloads down past compressed ones.
    fn mixed_payloads(total: usize) -> Vec<(Fingerprint, Vec<u8>)> {
        let mut payloads = Vec::new();
        let mut bytes = 0usize;
        for k in 0u64.. {
            if bytes >= total {
                break;
            }
            let len = 1_000 + (k as usize * 733) % 9_000;
            let payload = match k % 4 {
                0 => noise(k, len),
                1 => format!("row {k},segment,recipe,container\n")
                    .repeat(len / 30)
                    .into_bytes(),
                2 => vec![k as u8; len],
                _ => noise(k, 3), // below the compressor's minimum
            };
            bytes += payload.len();
            let mut id = [0u8; 20];
            id[..8].copy_from_slice(&k.to_le_bytes());
            payloads.push((Fingerprint::from_bytes(id), payload));
        }
        payloads
    }

    #[test]
    fn seal_is_identical_for_every_fanout() {
        // Enough raw bytes that a fan-out of 8 really runs 8 threads.
        let payloads = mixed_payloads(8 * MIN_FAN_BYTES + 10_000);
        let build = || {
            let mut b = ContainerBuilder::new(ContainerId(5), 4 << 20).with_compression(true);
            for (fp, payload) in &payloads {
                b.push(*fp, payload);
            }
            b
        };
        let (data, meta, stats) = build().seal_with(1);
        assert_eq!(build().seal(), (data.clone(), meta.clone()));
        for fanout in [0usize, 2, 8] {
            let (d, m, s) = build().seal_with(fanout);
            assert!(d == data, "fan-out {fanout}: data diverged");
            assert_eq!(m.encode(), meta.encode(), "fan-out {fanout}: meta diverged");
            assert_eq!(
                CompressionStats {
                    time: stats.time,
                    ..s
                },
                stats,
                "fan-out {fanout}"
            );
        }
        // The stored layout is dense, in push order, and decodes.
        let mut at = 0u32;
        for (entry, (fp, payload)) in meta.entries.iter().zip(&payloads) {
            assert_eq!((entry.fp, entry.offset), (*fp, at));
            assert_eq!(entry.payload_from(&data).unwrap(), payload);
            at += entry.len;
        }
        assert_eq!(at, meta.data_len);
        assert_eq!(stats.chunks, payloads.len() as u64);
        assert_eq!(stats.stored_bytes, data.len() as u64);
        assert!(stats.incompressible >= payloads.len() as u64 / 2);
        assert!(stats.stored_bytes < stats.raw_bytes * 2 / 3);
    }

    #[test]
    fn seal_without_compression_is_the_raw_concatenation() {
        let payloads = mixed_payloads(40_000);
        let mut b = ContainerBuilder::new(ContainerId(6), 1 << 20);
        for (fp, payload) in &payloads {
            b.push(*fp, payload);
        }
        let (data, meta, stats) = b.seal_with(4);
        assert_eq!(
            stats,
            CompressionStats::default(),
            "knob off records nothing"
        );
        let mut expected = Vec::new();
        for (entry, (fp, payload)) in meta.entries.iter().zip(&payloads) {
            assert_eq!(
                *entry,
                ContainerEntry {
                    fp: *fp,
                    offset: expected.len() as u32,
                    len: payload.len() as u32,
                    raw_len: payload.len() as u32,
                    deleted: false,
                }
            );
            expected.extend_from_slice(payload);
        }
        assert_eq!(&data[..], &expected[..]);
        assert_eq!(meta.data_len as usize, expected.len());
    }

    #[test]
    fn meta_roundtrip() {
        let meta = ContainerMeta::new(
            ContainerId(9),
            vec![
                ContainerEntry {
                    fp: fp(1),
                    offset: 0,
                    len: 10,
                    raw_len: 25,
                    deleted: false,
                },
                ContainerEntry {
                    fp: fp(2),
                    offset: 10,
                    len: 20,
                    raw_len: 20,
                    deleted: true,
                },
            ],
            30,
        );
        let buf = meta.encode();
        let back = ContainerMeta::decode(&buf).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn v1_meta_still_decodes() {
        // A pre-compression meta written by the v1 codec: no raw_len on the
        // wire; decode fills raw_len = len.
        let mut w = Writer::with_header(META_MAGIC, META_VERSION_V1);
        w.u64(4);
        w.u32(30);
        w.u32(2);
        w.fingerprint(&fp(1));
        w.u32(0).u32(10).u8(0);
        w.fingerprint(&fp(2));
        w.u32(10).u32(20).u8(1);
        let meta = ContainerMeta::decode(&w.freeze()).unwrap();
        assert_eq!(meta.id, ContainerId(4));
        assert_eq!(meta.data_len, 30);
        assert_eq!(meta.entries.len(), 2);
        assert_eq!(meta.entries[0].raw_len, 10);
        assert!(!meta.entries[0].is_compressed());
        assert!(meta.entries[1].deleted);
        // Re-encoding upgrades to the current version transparently.
        let back = ContainerMeta::decode(&meta.encode()).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn meta_decode_rejects_corruption() {
        let meta = ContainerMeta::new(ContainerId(1), vec![], 0);
        let mut buf = meta.encode().to_vec();
        buf[0] ^= 0xff;
        assert!(ContainerMeta::decode(&buf).is_err());
        let buf = meta.encode();
        assert!(ContainerMeta::decode(&buf[..buf.len() - 1]).is_err());
        // An unknown future version is corruption, not a silent misparse.
        let w = Writer::with_header(META_MAGIC, 9);
        assert!(ContainerMeta::decode(&w.freeze()).is_err());
    }

    #[test]
    fn meta_decode_rejects_out_of_bounds_entries() {
        // Entry extends past data_len.
        let meta = ContainerMeta::new(
            ContainerId(2),
            vec![ContainerEntry {
                fp: fp(1),
                offset: 5,
                len: 100,
                raw_len: 100,
                deleted: false,
            }],
            50,
        );
        let err = ContainerMeta::decode(&meta.encode()).unwrap_err();
        assert!(matches!(err, SlimError::Corrupt { .. }), "{err}");
        // offset + len wraps u32 — checked math must still reject it.
        let meta = ContainerMeta::new(
            ContainerId(2),
            vec![ContainerEntry {
                fp: fp(1),
                offset: u32::MAX - 10,
                len: u32::MAX - 10,
                raw_len: u32::MAX - 10,
                deleted: false,
            }],
            u32::MAX,
        );
        let err = ContainerMeta::decode(&meta.encode()).unwrap_err();
        assert!(matches!(err, SlimError::Corrupt { .. }), "{err}");
        // Stored longer than raw is structurally impossible for the builder.
        let meta = ContainerMeta::new(
            ContainerId(2),
            vec![ContainerEntry {
                fp: fp(1),
                offset: 0,
                len: 40,
                raw_len: 10,
                deleted: false,
            }],
            50,
        );
        let err = ContainerMeta::decode(&meta.encode()).unwrap_err();
        assert!(matches!(err, SlimError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn payload_from_rejects_poisoned_entries() {
        let data = bytes::Bytes::from(vec![1u8; 64]);
        // Overlong len.
        let e = ContainerEntry {
            fp: fp(1),
            offset: 32,
            len: 64,
            raw_len: 64,
            deleted: false,
        };
        assert!(matches!(
            e.payload_from(&data),
            Err(SlimError::Corrupt { .. })
        ));
        // offset + len overflowing u32 must not wrap into a "valid" range.
        let e = ContainerEntry {
            fp: fp(1),
            offset: u32::MAX,
            len: u32::MAX,
            raw_len: u32::MAX,
            deleted: false,
        };
        assert!(matches!(
            e.payload_from(&data),
            Err(SlimError::Corrupt { .. })
        ));
        // len > raw_len is invalid even when in bounds.
        let e = ContainerEntry {
            fp: fp(1),
            offset: 0,
            len: 32,
            raw_len: 8,
            deleted: false,
        };
        assert!(matches!(
            e.payload_from(&data),
            Err(SlimError::Corrupt { .. })
        ));
        // A "compressed" entry whose stored bytes are garbage decodes to
        // Corrupt, not a panic.
        let e = ContainerEntry {
            fp: fp(1),
            offset: 0,
            len: 32,
            raw_len: 1000,
            deleted: false,
        };
        assert!(matches!(
            e.payload_from(&data),
            Err(SlimError::Corrupt { .. })
        ));
    }

    #[test]
    fn utilization_accounting() {
        let mut meta = ContainerMeta::new(
            ContainerId(3),
            vec![
                ContainerEntry {
                    fp: fp(1),
                    offset: 0,
                    len: 10,
                    raw_len: 10,
                    deleted: false,
                },
                ContainerEntry {
                    fp: fp(2),
                    offset: 10,
                    len: 30,
                    raw_len: 45,
                    deleted: false,
                },
                ContainerEntry {
                    fp: fp(3),
                    offset: 40,
                    len: 60,
                    raw_len: 80,
                    deleted: false,
                },
            ],
            100,
        );
        assert_eq!(meta.live_bytes(), 100);
        assert_eq!(meta.live_raw_bytes(), 135);
        assert_eq!(meta.deleted_ratio(), 0.0);
        assert!(meta.mark_deleted(&fp(2)));
        assert!(!meta.mark_deleted(&fp(2)), "second mark is a no-op");
        assert!(!meta.mark_deleted(&fp(9)), "unknown fp is a no-op");
        assert_eq!(meta.live_bytes(), 70);
        assert_eq!(meta.live_raw_bytes(), 90);
        assert_eq!(meta.stale_bytes(), 30);
        assert!((meta.deleted_ratio() - 1.0 / 3.0).abs() < 1e-9);
        assert!(meta.find_live(&fp(2)).is_none());
        assert!(meta.find(&fp(2)).is_some());
        assert_eq!(meta.live_map().len(), 2);
    }
}
