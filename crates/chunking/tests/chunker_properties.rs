//! Property tests of the chunking substrate: every chunker must tile any
//! input, respect its size bounds, agree with its own boundary probe, be
//! deterministic, and (for CDC) realign after prefix shifts. Each property
//! runs over seeded generated cases (`slim_types::rng::cases`); a failure
//! prints the seed that replays it.

use std::collections::HashSet;

use slim_chunking::{chunk_all, ChunkSpec, Chunker, FastCdcChunker, GearChunker, RabinChunker};
use slim_types::rng::cases;

fn chunkers() -> Vec<(&'static str, Box<dyn Chunker>)> {
    let spec = ChunkSpec::new(64, 256, 1024);
    vec![
        ("rabin", Box::new(RabinChunker::new(spec))),
        ("gear", Box::new(GearChunker::new(spec))),
        ("fastcdc", Box::new(FastCdcChunker::new(spec))),
    ]
}

#[test]
fn chunks_tile_and_respect_bounds() {
    cases(48, 0xC0DE_0001, |rng| {
        // Masking bits off covers the low-entropy inputs (down to all
        // zeros) where CDC falls back to forced max-size cuts.
        let mask = [0xFF, 0xFF, 0x0F, 0x01, 0x00][rng.gen_range(0..5)];
        let mut data = rng.gen_bytes(0..40_000);
        data.iter_mut().for_each(|b| *b &= mask);
        for (name, chunker) in chunkers() {
            let spec = chunker.spec();
            let chunks = chunk_all(chunker.as_ref(), &data);
            if data.is_empty() {
                assert!(chunks.is_empty());
                continue;
            }
            assert_eq!(chunks[0].start, 0, "{name}");
            assert_eq!(chunks.last().unwrap().end, data.len(), "{name}");
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "{name}: gap/overlap");
            }
            for (i, c) in chunks.iter().enumerate() {
                assert!(c.len() <= spec.max, "{name}: chunk over max");
                if i + 1 != chunks.len() {
                    assert!(c.len() >= spec.min, "{name}: interior chunk under min");
                }
                assert!(
                    chunker.is_boundary(&data, c.start, c.end),
                    "{name}: probe disagrees with scan at {}..{}",
                    c.start,
                    c.end
                );
            }
        }
    });
}

#[test]
fn chunking_is_deterministic() {
    cases(48, 0xC0DE_0002, |rng| {
        let data = rng.gen_bytes(0..20_000);
        for (name, chunker) in chunkers() {
            let a = chunk_all(chunker.as_ref(), &data);
            let b = chunk_all(chunker.as_ref(), &data);
            assert_eq!(a, b, "{name}");
        }
    });
}

#[test]
fn cdc_realigns_after_prefix_shift() {
    cases(48, 0xC0DE_0003, |rng| {
        let data = rng.gen_bytes(8_000..24_000);
        let prefix = rng.gen_bytes(1..64);
        // Content-defined boundaries deep in the buffer must survive a
        // prefix insertion (the boundary-shift resistance fixed-size
        // chunking lacks).
        for (name, chunker) in chunkers() {
            let base: HashSet<usize> = chunk_all(chunker.as_ref(), &data)
                .iter()
                .map(|c| c.end)
                .collect();
            let mut shifted = prefix.clone();
            shifted.extend_from_slice(&data);
            let deep: Vec<usize> = chunk_all(chunker.as_ref(), &shifted)
                .iter()
                .map(|c| c.end)
                .filter(|end| *end > prefix.len() + 2048)
                .collect();
            let realigned = deep
                .iter()
                .filter(|end| base.contains(&(**end - prefix.len())))
                .count();
            // Most deep boundaries realign (allow slack for probabilistic tails).
            assert!(
                realigned * 2 >= deep.len(),
                "{name}: only {realigned}/{} deep boundaries realigned",
                deep.len()
            );
        }
    });
}

#[test]
fn identical_content_same_fingerprints() {
    cases(48, 0xC0DE_0004, |rng| {
        // Duplicate high-entropy content: the second half's chunk
        // fingerprints must replay the first half's once boundaries realign.
        // (Degenerate low-entropy buffers make CDC fall back to forced
        // max-size cuts, where realignment is not expected.)
        let data = rng.gen_bytes(4_096..16_384);
        let chunker = FastCdcChunker::new(ChunkSpec::new(64, 256, 1024));
        let mut doubled = data.clone();
        doubled.extend_from_slice(&data);
        let chunks = chunk_all(&chunker, &doubled);
        let first: HashSet<_> = chunks
            .iter()
            .filter(|c| c.end <= data.len())
            .map(|c| c.fp)
            .collect();
        let second_hits = chunks
            .iter()
            .filter(|c| c.start >= data.len() + 1024)
            .filter(|c| first.contains(&c.fp))
            .count();
        let second_total = chunks
            .iter()
            .filter(|c| c.start >= data.len() + 1024)
            .count();
        assert!(
            second_total == 0 || second_hits * 2 >= second_total,
            "only {second_hits}/{second_total} duplicate chunks matched"
        );
    });
}
