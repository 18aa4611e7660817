//! Recipes — the logical chunk sequence of one backup file version.
//!
//! A recipe is the sequence of [`ChunkRecord`]s describing how to reassemble
//! a file (§III-B). Consecutive chunks are grouped into *segments*; the
//! corresponding runs of records are *segment recipes*, which are the unit of
//! prefetching during deduplication. The encoding keeps every segment block
//! independently decodable and records its byte span, so an L-node can fetch
//! a single similar segment with one OSS range read instead of downloading
//! the whole recipe.
//!
//! The [`RecipeIndex`] maps each segment's representative (sampled)
//! fingerprints to that segment's byte span, exactly as described in §III-B.

use crate::chunk::ChunkRecord;
use crate::codec::{Reader, Writer};
use crate::error::{Result, SlimError};
use crate::fingerprint::Fingerprint;

const RECIPE_MAGIC: &[u8; 4] = b"SLRC";
const RECIPE_VERSION: u8 = 1;
const SEGMENT_MAGIC: &[u8; 4] = b"SLSG";
const INDEX_MAGIC: &[u8; 4] = b"SLRI";
const INDEX_VERSION: u8 = 1;
/// A segment block is at least its magic and record count.
const SEGMENT_BLOCK_MIN_LEN: usize = 4 + 4;
/// Fixed encoding of a [`RecipeIndexEntry`]: fp, segment idx, span.
const INDEX_ENTRY_LEN: usize = 20 + 4 + 8 + 8;

/// The records of one segment of a backup file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentRecipe {
    /// Chunk records in logical (file) order.
    pub records: Vec<ChunkRecord>,
}

impl SegmentRecipe {
    /// A segment recipe over the given records.
    pub fn new(records: Vec<ChunkRecord>) -> Self {
        SegmentRecipe { records }
    }

    /// Logical bytes covered by this segment.
    pub fn logical_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size as u64).sum()
    }

    /// Encode as a standalone block (decodable without the recipe header).
    pub fn encode_block(&self) -> bytes::Bytes {
        let mut w = Writer::new();
        w.u32(u32::from_le_bytes(*SEGMENT_MAGIC));
        w.u32(self.records.len() as u32);
        for rec in &self.records {
            rec.encode(&mut w);
        }
        w.freeze()
    }

    /// Decode a standalone block produced by [`SegmentRecipe::encode_block`].
    pub fn decode_block(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf, "segment recipe");
        let magic = r.u32()?;
        if magic != u32::from_le_bytes(*SEGMENT_MAGIC) {
            return Err(SlimError::corrupt("segment recipe", "bad segment magic"));
        }
        let n = r.count(ChunkRecord::MIN_ENCODED_LEN)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(ChunkRecord::decode(&mut r)?);
        }
        r.finish()?;
        Ok(SegmentRecipe { records })
    }
}

/// Byte span of one encoded segment block within a recipe object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpan {
    /// Offset of the block within the recipe object.
    pub offset: u64,
    /// Length of the block in bytes.
    pub len: u64,
}

/// The full recipe of one backup file version.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recipe {
    /// Segment recipes in logical order.
    pub segments: Vec<SegmentRecipe>,
}

impl Recipe {
    /// An empty recipe.
    pub fn new() -> Self {
        Recipe::default()
    }

    /// Total logical size of the file described by this recipe.
    pub fn logical_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.logical_bytes()).sum()
    }

    /// Total number of chunk records.
    pub fn record_count(&self) -> usize {
        self.segments.iter().map(|s| s.records.len()).sum()
    }

    /// Iterate over all chunk records in logical order.
    pub fn records(&self) -> impl Iterator<Item = &ChunkRecord> {
        self.segments.iter().flat_map(|s| s.records.iter())
    }

    /// Encode to the OSS wire format, returning the object bytes and the
    /// byte span of each segment block (for building the recipe index).
    ///
    /// Layout: header | u32 segment-count | blocks... — each block is a
    /// standalone [`SegmentRecipe::encode_block`] so that a range read of one
    /// span decodes independently.
    pub fn encode(&self) -> (bytes::Bytes, Vec<SegmentSpan>) {
        let mut w = Writer::with_header(RECIPE_MAGIC, RECIPE_VERSION);
        w.u32(self.segments.len() as u32);
        let mut body: Vec<bytes::Bytes> = Vec::with_capacity(self.segments.len());
        let mut spans = Vec::with_capacity(self.segments.len());
        let mut offset = w.len() as u64;
        for seg in &self.segments {
            let block = seg.encode_block();
            spans.push(SegmentSpan {
                offset,
                len: block.len() as u64,
            });
            offset += block.len() as u64;
            body.push(block);
        }
        let mut out = bytes::BytesMut::from(&w.freeze()[..]);
        for block in body {
            out.extend_from_slice(&block);
        }
        (out.freeze(), spans)
    }

    /// Decode a full recipe object.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf, "recipe");
        r.expect_header(RECIPE_MAGIC, RECIPE_VERSION)?;
        let n = r.count(SEGMENT_BLOCK_MIN_LEN)?;
        drop(r);
        let mut segments = Vec::with_capacity(n);
        // Re-walk the blocks: each block is self-delimiting, so decode
        // sequentially from the header end.
        let mut pos = 4 + 1 + 4; // magic + version + count
        for _ in 0..n {
            let (seg, used) = decode_block_at(buf, pos)?;
            segments.push(seg);
            pos += used;
        }
        if pos != buf.len() {
            return Err(SlimError::corrupt(
                "recipe",
                format!("{} trailing bytes", buf.len() - pos),
            ));
        }
        Ok(Recipe { segments })
    }
}

/// Decode the segment block starting at `pos`, returning it and its encoded
/// length.
fn decode_block_at(buf: &[u8], pos: usize) -> Result<(SegmentRecipe, usize)> {
    let rest = buf
        .get(pos..)
        .ok_or_else(|| SlimError::corrupt("recipe", "segment offset out of bounds"))?;
    // A block has no explicit length; decode records to find the end.
    let mut r = Reader::new(rest, "segment recipe");
    let magic = r.u32()?;
    if magic != u32::from_le_bytes(*SEGMENT_MAGIC) {
        return Err(SlimError::corrupt("recipe", "bad segment magic in stream"));
    }
    let n = r.count(ChunkRecord::MIN_ENCODED_LEN)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(ChunkRecord::decode(&mut r)?);
    }
    let used = rest.len() - r.remaining();
    Ok((SegmentRecipe { records }, used))
}

/// One entry of a recipe index: a representative fingerprint of a segment
/// mapped to the byte span of that segment's recipe block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipeIndexEntry {
    /// Sampled representative fingerprint.
    pub sample_fp: Fingerprint,
    /// Ordinal of the segment within the file.
    pub segment_idx: u32,
    /// Where the segment recipe block lives inside the recipe object.
    pub span: SegmentSpan,
}

/// The recipe index of one backup file version (§III-B).
///
/// Built at backup time from the sampled fingerprints of each segment; used
/// by the next version's dedup job to locate similar segment recipes with a
/// single lookup plus one OSS range read.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecipeIndex {
    /// All sampled entries, in segment order.
    pub entries: Vec<RecipeIndexEntry>,
}

impl RecipeIndex {
    /// An empty index.
    pub fn new() -> Self {
        RecipeIndex::default()
    }

    /// Build the index for a recipe from its encoded segment spans.
    ///
    /// Sampling rules (shared by the L-node and the G-node's SCC rewrite):
    /// * a record's sample key is its fingerprint — except superchunks,
    ///   which are keyed by their *first member* chunk (the only
    ///   CDC-reproducible fingerprint, required by Algorithm 1);
    /// * superchunk records are always indexed, plain records when their
    ///   key passes `fp mod sample_rate == 0`;
    /// * the *first* record of every segment is always indexed: it anchors
    ///   sequential chaining deterministically, and for small files it
    ///   guarantees an unchanged head finds its history even when random
    ///   sampling selected nothing stable (e.g. only a tail chunk that the
    ///   next version appends to).
    pub fn build(recipe: &Recipe, spans: &[SegmentSpan], sample_rate: u64) -> RecipeIndex {
        assert_eq!(
            spans.len(),
            recipe.segments.len(),
            "spans from this recipe's encode()"
        );
        let key_of = |rec: &ChunkRecord| match &rec.super_chunk {
            Some(sc) => sc.first_chunk,
            None => rec.fp,
        };
        let mut index = RecipeIndex::new();
        for (seg_idx, seg) in recipe.segments.iter().enumerate() {
            for (rec_idx, rec) in seg.records.iter().enumerate() {
                let key = key_of(rec);
                if rec_idx == 0 || key.is_sample(sample_rate) || rec.is_super() {
                    index.push(RecipeIndexEntry {
                        sample_fp: key,
                        segment_idx: seg_idx as u32,
                        span: spans[seg_idx],
                    });
                }
            }
        }
        index
    }

    /// Append an entry.
    pub fn push(&mut self, entry: RecipeIndexEntry) {
        self.entries.push(entry);
    }

    /// Look up all spans whose sample matches `fp`.
    pub fn lookup<'a>(
        &'a self,
        fp: &'a Fingerprint,
    ) -> impl Iterator<Item = &'a RecipeIndexEntry> + 'a {
        self.entries.iter().filter(move |e| e.sample_fp == *fp)
    }

    /// Encode to the OSS wire format.
    pub fn encode(&self) -> bytes::Bytes {
        let mut w = Writer::with_header(INDEX_MAGIC, INDEX_VERSION);
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            w.fingerprint(&e.sample_fp);
            w.u32(e.segment_idx);
            w.u64(e.span.offset);
            w.u64(e.span.len);
        }
        w.freeze()
    }

    /// Decode from the OSS wire format.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf, "recipe index");
        r.expect_header(INDEX_MAGIC, INDEX_VERSION)?;
        let n = r.count(INDEX_ENTRY_LEN)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(RecipeIndexEntry {
                sample_fp: r.fingerprint()?,
                segment_idx: r.u32()?,
                span: SegmentSpan {
                    offset: r.u64()?,
                    len: r.u64()?,
                },
            });
        }
        r.finish()?;
        Ok(RecipeIndex { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerId;

    fn fp(b: u8) -> Fingerprint {
        Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    fn rec(b: u8, size: u32) -> ChunkRecord {
        ChunkRecord::new(fp(b), ContainerId(b as u64), size, 0)
    }

    fn sample_recipe() -> Recipe {
        Recipe {
            segments: vec![
                SegmentRecipe::new(vec![rec(1, 100), rec(2, 200)]),
                SegmentRecipe::new(vec![rec(3, 300)]),
                SegmentRecipe::new(vec![]),
            ],
        }
    }

    #[test]
    fn recipe_roundtrip() {
        let recipe = sample_recipe();
        let (buf, spans) = recipe.encode();
        assert_eq!(spans.len(), 3);
        let back = Recipe::decode(&buf).unwrap();
        assert_eq!(back, recipe);
        assert_eq!(back.logical_bytes(), 600);
        assert_eq!(back.record_count(), 3);
    }

    #[test]
    fn segment_spans_support_range_decoding() {
        let recipe = sample_recipe();
        let (buf, spans) = recipe.encode();
        for (i, span) in spans.iter().enumerate() {
            let block = &buf[span.offset as usize..(span.offset + span.len) as usize];
            let seg = SegmentRecipe::decode_block(block).unwrap();
            assert_eq!(seg, recipe.segments[i]);
        }
    }

    #[test]
    fn recipe_decode_rejects_corruption() {
        let (buf, _) = sample_recipe().encode();
        let mut bad = buf.to_vec();
        bad[6] ^= 0xff; // inside segment count / first block magic
        assert!(Recipe::decode(&bad).is_err());
        assert!(Recipe::decode(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn recipe_index_roundtrip_and_lookup() {
        let mut idx = RecipeIndex::new();
        idx.push(RecipeIndexEntry {
            sample_fp: fp(1),
            segment_idx: 0,
            span: SegmentSpan { offset: 9, len: 50 },
        });
        idx.push(RecipeIndexEntry {
            sample_fp: fp(1),
            segment_idx: 2,
            span: SegmentSpan {
                offset: 100,
                len: 30,
            },
        });
        idx.push(RecipeIndexEntry {
            sample_fp: fp(2),
            segment_idx: 1,
            span: SegmentSpan {
                offset: 59,
                len: 41,
            },
        });
        let buf = idx.encode();
        let back = RecipeIndex::decode(&buf).unwrap();
        assert_eq!(back, idx);
        let fp1 = fp(1);
        let hits: Vec<_> = back.lookup(&fp1).collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].segment_idx, 0);
        assert_eq!(hits[1].segment_idx, 2);
        let fp9 = fp(9);
        assert_eq!(back.lookup(&fp9).count(), 0);
    }

    #[test]
    fn empty_recipe_roundtrip() {
        let recipe = Recipe::new();
        let (buf, spans) = recipe.encode();
        assert!(spans.is_empty());
        let back = Recipe::decode(&buf).unwrap();
        assert_eq!(back.record_count(), 0);
    }
}
