//! Chunk records — the entries of a recipe.
//!
//! Each record is the quadruple ⟨fp, containerID, size, duplicateTimes⟩ from
//! §III-B of the paper, extended with the superchunk metadata of §IV-C:
//! a superchunk record additionally stores the fingerprint and size of its
//! *first* member chunk (`firstChunk`), which is how later versions detect a
//! candidate superchunk match (Algorithm 1).

use crate::codec::{Reader, Writer};
use crate::container::ContainerId;
use crate::error::Result;
use crate::fingerprint::Fingerprint;

/// Metadata identifying a superchunk (a run of merged chunks, §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperChunkInfo {
    /// Fingerprint of the first member chunk; a CDC chunk matching this
    /// fingerprint triggers the SuperChunking probe of Algorithm 1.
    pub first_chunk: Fingerprint,
    /// Size in bytes of the first member chunk.
    pub first_chunk_size: u32,
    /// How many CDC chunks were merged into this superchunk.
    pub member_count: u32,
}

/// One entry in a recipe: where one logical chunk of the backup file lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// SHA-1 fingerprint of the chunk payload.
    pub fp: Fingerprint,
    /// Container holding the payload at the time the recipe was written.
    /// (Reverse deduplication may later relocate the payload; the global
    /// index is the authority in that case, §VI-A.)
    pub container_id: ContainerId,
    /// Payload size in bytes.
    pub size: u32,
    /// How many historical versions confirmed this chunk as a duplicate
    /// (drives history-aware chunk merging, §IV-C).
    pub duplicate_times: u32,
    /// Present iff this record describes a superchunk.
    pub super_chunk: Option<SuperChunkInfo>,
}

impl ChunkRecord {
    /// A plain (non-super) chunk record.
    pub fn new(
        fp: Fingerprint,
        container_id: ContainerId,
        size: u32,
        duplicate_times: u32,
    ) -> Self {
        ChunkRecord {
            fp,
            container_id,
            size,
            duplicate_times,
            super_chunk: None,
        }
    }

    /// Whether this record describes a superchunk.
    pub fn is_super(&self) -> bool {
        self.super_chunk.is_some()
    }

    /// Shortest encoding of a record (no superchunk info): what a decoder
    /// passes to [`Reader::count`] before sizing a record vector.
    pub const MIN_ENCODED_LEN: usize = 20 + 8 + 4 + 4 + 1;

    /// Encode into `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.fingerprint(&self.fp);
        w.u64(self.container_id.0);
        w.u32(self.size);
        w.u32(self.duplicate_times);
        match &self.super_chunk {
            None => {
                w.u8(0);
            }
            Some(sc) => {
                w.u8(1);
                w.fingerprint(&sc.first_chunk);
                w.u32(sc.first_chunk_size);
                w.u32(sc.member_count);
            }
        }
    }

    /// Decode from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let fp = r.fingerprint()?;
        let container_id = ContainerId(r.u64()?);
        let size = r.u32()?;
        let duplicate_times = r.u32()?;
        let super_chunk = match r.u8()? {
            0 => None,
            _ => Some(SuperChunkInfo {
                first_chunk: r.fingerprint()?,
                first_chunk_size: r.u32()?,
                member_count: r.u32()?,
            }),
        };
        Ok(ChunkRecord {
            fp,
            container_id,
            size,
            duplicate_times,
            super_chunk,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(b: u8) -> Fingerprint {
        Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    #[test]
    fn roundtrip_plain() {
        let rec = ChunkRecord::new(fp(1), ContainerId(42), 4096, 3);
        let mut w = Writer::new();
        rec.encode(&mut w);
        let buf = w.freeze();
        let mut r = Reader::new(&buf, "chunk record");
        let back = ChunkRecord::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, rec);
        assert!(!back.is_super());
    }

    #[test]
    fn roundtrip_super() {
        let rec = ChunkRecord {
            fp: fp(2),
            container_id: ContainerId(7),
            size: 128 * 1024,
            duplicate_times: 9,
            super_chunk: Some(SuperChunkInfo {
                first_chunk: fp(3),
                first_chunk_size: 4096,
                member_count: 17,
            }),
        };
        let mut w = Writer::new();
        rec.encode(&mut w);
        let buf = w.freeze();
        let mut r = Reader::new(&buf, "chunk record");
        let back = ChunkRecord::decode(&mut r).unwrap();
        assert_eq!(back, rec);
        assert!(back.is_super());
    }

    #[test]
    fn decode_truncated_fails() {
        let rec = ChunkRecord::new(fp(1), ContainerId(1), 1, 0);
        let mut w = Writer::new();
        rec.encode(&mut w);
        let buf = w.freeze();
        let mut r = Reader::new(&buf[..buf.len() - 1], "chunk record");
        assert!(ChunkRecord::decode(&mut r).is_err());
    }
}
