//! Property tests of every persisted format: arbitrary structures must
//! round-trip bit-exactly, recipe segment spans must always support
//! independent range decoding, and no decoder may trust an on-wire count.
//! Each property runs over seeded generated cases (`rng::cases`); a failure
//! prints the seed that replays it.

use slim_types::rng::{cases, Rng};
use slim_types::{
    crc, ChunkRecord, ContainerEntry, ContainerId, ContainerMeta, FileBackupInfo, FileId,
    Fingerprint, GroupMember, ParityGroup, Recipe, RecipeIndex, RecipeIndexEntry, SegmentRecipe,
    SlimError, SuperChunkInfo, VersionManifest,
};

fn gen_fp(rng: &mut Rng) -> Fingerprint {
    let mut bytes = [0u8; 20];
    rng.fill_bytes(&mut bytes);
    Fingerprint::from_bytes(bytes)
}

fn gen_record(rng: &mut Rng) -> ChunkRecord {
    ChunkRecord {
        fp: gen_fp(rng),
        container_id: ContainerId(rng.next_u64()),
        size: rng.gen_range(1..u32::MAX),
        duplicate_times: rng.next_u64() as u32,
        super_chunk: rng.gen_bool(0.5).then(|| SuperChunkInfo {
            first_chunk: gen_fp(rng),
            first_chunk_size: rng.gen_range(1..u32::MAX),
            member_count: rng.gen_range(2..64u32),
        }),
    }
}

fn gen_segment(rng: &mut Rng) -> SegmentRecipe {
    SegmentRecipe::new((0..rng.gen_range(0..20)).map(|_| gen_record(rng)).collect())
}

fn gen_recipe(rng: &mut Rng) -> Recipe {
    Recipe {
        segments: (0..rng.gen_range(0..8)).map(|_| gen_segment(rng)).collect(),
    }
}

fn gen_recipe_index(rng: &mut Rng) -> RecipeIndex {
    let mut index = RecipeIndex::new();
    for _ in 0..rng.gen_range(0..40) {
        index.push(RecipeIndexEntry {
            sample_fp: gen_fp(rng),
            segment_idx: rng.next_u64() as u32,
            span: slim_types::recipe::SegmentSpan {
                offset: rng.next_u64() >> 32,
                len: rng.next_u64() >> 32,
            },
        });
    }
    index
}

/// Entries laid out sequentially, which is the only structurally valid
/// shape the decoder accepts.
fn gen_container_meta(rng: &mut Rng) -> ContainerMeta {
    let mut offset = 0u32;
    let entries = (0..rng.gen_range(0..32))
        .map(|_| {
            let len = rng.gen_range(1..64_000u32);
            let e = ContainerEntry {
                fp: gen_fp(rng),
                offset,
                len,
                raw_len: len + rng.gen_range(0..64_000u32),
                deleted: rng.gen_bool(0.5),
            };
            offset += len;
            e
        })
        .collect();
    ContainerMeta::new(ContainerId(rng.next_u64()), entries, offset)
}

fn gen_manifest(rng: &mut Rng) -> VersionManifest {
    let files = (0..rng.gen_range(0..8))
        .map(|_| {
            let name: String = (0..rng.gen_range(1..25))
                .map(|_| b"abcdefghijklmnopqrstuvwxyz/"[rng.gen_range(0..27)] as char)
                .collect();
            FileBackupInfo {
                file: FileId::new(name),
                recipe_key: "k".into(),
                recipe_index_key: "i".into(),
                logical_bytes: rng.next_u64(),
                stored_bytes: rng.next_u64(),
                chunk_count: 0,
                duplicate_count: 0,
            }
        })
        .collect();
    let containers: Vec<ContainerId> = (0..rng.gen_range(0..16))
        .map(|_| ContainerId(rng.next_u64()))
        .collect();
    VersionManifest {
        version: rng.next_u64(),
        files,
        new_containers: containers.clone(),
        garbage_on_delete: containers.clone(),
        referenced_containers: containers,
    }
}

#[test]
fn recipe_roundtrip() {
    cases(64, 0xC0DEC_001, |rng| {
        let recipe = gen_recipe(rng);
        let (buf, spans) = recipe.encode();
        assert_eq!(spans.len(), recipe.segments.len());
        let back = Recipe::decode(&buf).unwrap();
        assert_eq!(&back, &recipe);
        // Every span decodes independently to its segment.
        for (i, span) in spans.iter().enumerate() {
            let block = &buf[span.offset as usize..(span.offset + span.len) as usize];
            let seg = SegmentRecipe::decode_block(block).unwrap();
            assert_eq!(&seg, &recipe.segments[i]);
        }
    });
}

#[test]
fn recipe_decode_never_panics_on_garbage() {
    cases(256, 0xC0DEC_002, |rng| {
        let bytes = rng.gen_bytes(0..300);
        let _ = Recipe::decode(&bytes);
        let _ = RecipeIndex::decode(&bytes);
        let _ = ContainerMeta::decode(&bytes);
        let _ = VersionManifest::decode(&bytes);
    });
}

#[test]
fn recipe_index_roundtrip() {
    cases(64, 0xC0DEC_003, |rng| {
        let index = gen_recipe_index(rng);
        let back = RecipeIndex::decode(&index.encode()).unwrap();
        assert_eq!(back, index);
    });
}

#[test]
fn container_meta_roundtrip() {
    cases(64, 0xC0DEC_004, |rng| {
        let meta = gen_container_meta(rng);
        let back = ContainerMeta::decode(&meta.encode()).unwrap();
        assert_eq!(&back, &meta);
        // Accounting identities.
        assert_eq!(
            back.live_chunks() + back.deleted_chunks(),
            back.total_chunks()
        );
        assert!(back.deleted_ratio() >= 0.0 && back.deleted_ratio() <= 1.0);
        assert!(back.live_raw_bytes() >= back.live_bytes());
    });
}

#[test]
fn container_meta_rejects_out_of_bounds_entries() {
    cases(64, 0xC0DEC_005, |rng| {
        // Any entry reaching beyond data_len (here: smaller than the entry's
        // own end, including u32-wrapping offset+len combinations) must
        // decode to Corrupt rather than a poisoned meta.
        let offset = rng.gen_range(1..u32::MAX);
        let len = rng.gen_range(1..u32::MAX);
        let end = offset as u64 + len as u64;
        let data_len = (end - 1).min(u32::MAX as u64) as u32;
        let entry = ContainerEntry {
            fp: gen_fp(rng),
            offset,
            len,
            raw_len: len,
            deleted: false,
        };
        let meta = ContainerMeta::new(ContainerId(rng.next_u64()), vec![entry], data_len);
        assert!(ContainerMeta::decode(&meta.encode()).is_err());
    });
}

#[test]
fn compress_roundtrips_or_declines() {
    cases(64, 0xC0DEC_006, |rng| {
        // Masking bits off makes some cases compressible; `None` means
        // stored raw, which is always valid.
        let mask = [0xFF, 0x0F, 0x03][rng.gen_range(0..3)];
        let mut bytes = rng.gen_bytes(0..4096);
        bytes.iter_mut().for_each(|b| *b &= mask);
        if let Some(c) = slim_types::compress::compress(&bytes) {
            assert!(c.len() < bytes.len());
            let back = slim_types::compress::decompress(&c, bytes.len()).unwrap();
            assert_eq!(back, bytes);
        }
    });
}

#[test]
fn decompress_never_panics_on_garbage() {
    cases(256, 0xC0DEC_007, |rng| {
        let bytes = rng.gen_bytes(0..512);
        let _ = slim_types::compress::decompress(&bytes, rng.gen_range(0..16_384));
    });
}

#[test]
fn manifest_roundtrip() {
    cases(64, 0xC0DEC_008, |rng| {
        let manifest = gen_manifest(rng);
        let back = VersionManifest::decode(&manifest.encode()).unwrap();
        assert_eq!(back, manifest);
    });
}

/// Nothing read back from the bucket is trusted: a count field that the rest
/// of the buffer cannot hold (`u32::MAX`, or one more than fits) is
/// `Corrupt`, decided before any collection is sized from it.
#[test]
fn oversized_counts_are_corrupt_not_allocated() {
    const HEADER: usize = 4 + 1; // magic + format version
                                 // `at` is the offset of the count, `item` the least bytes per element.
    fn check(valid: &[u8], at: usize, item: usize, decode: fn(&[u8]) -> Option<SlimError>) {
        assert!(decode(valid).is_none(), "untouched encoding");
        let one_too_many = ((valid.len() - at - 4) / item + 1) as u32;
        for count in [u32::MAX, one_too_many] {
            let mut bad = valid.to_vec();
            bad[at..at + 4].copy_from_slice(&count.to_le_bytes());
            let got = decode(&bad);
            assert!(
                matches!(got, Some(SlimError::Corrupt { .. })),
                "count {count} at {at}: {got:?}"
            );
        }
    }
    cases(32, 0xC0DEC_009, |rng| {
        let rec = ChunkRecord::MIN_ENCODED_LEN;
        let block = |b: &[u8]| SegmentRecipe::decode_block(b).err();
        let recipe = |b: &[u8]| Recipe::decode(b).err();
        let manifest = |b: &[u8]| VersionManifest::decode(b).err();
        check(&gen_segment(rng).encode_block(), 4, rec, block);
        check(&gen_recipe(rng).encode().0, HEADER, 8, recipe);
        let one_segment = Recipe {
            segments: vec![gen_segment(rng)],
        };
        check(&one_segment.encode().0, HEADER + 4 + 4, rec, recipe);
        check(&gen_recipe_index(rng).encode(), HEADER, 40, |b| {
            RecipeIndex::decode(b).err()
        });
        check(&gen_container_meta(rng).encode(), HEADER + 8 + 4, 29, |b| {
            ContainerMeta::decode(b).err()
        });
        // The manifest's four counts: files, then three container lists.
        let mut m = gen_manifest(rng);
        check(&m.encode(), HEADER + 8, 44, manifest);
        m.files.clear();
        let lists = HEADER + 8 + 4;
        check(&m.encode(), lists, 8, manifest);
        let second = lists + 4 + 8 * m.new_containers.len();
        check(&m.encode(), second, 8, manifest);
        let third = second + 4 + 8 * m.garbage_on_delete.len();
        check(&m.encode(), third, 8, manifest);
        // Parity groups are CRC-sealed: tamper inside the seal.
        let mut group = ParityGroup {
            id: rng.next_u64(),
            members: Vec::new(),
        };
        for i in 0..rng.gen_range(1..6) {
            group.members.push(GroupMember {
                key: format!("containers/{i}"),
                len: rng.next_u64(),
            });
        }
        let payload = crc::unseal(&group.encode(), "test").unwrap();
        check(&payload, HEADER + 8, 12, |b| {
            ParityGroup::decode(&crc::seal(b)).err()
        });
    });
}
