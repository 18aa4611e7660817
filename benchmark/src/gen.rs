//! Seeded multi-version dataset generator.
//!
//! The block-list model of `crates/workload/src/generator.rs`, re-implemented
//! without `rand` so the benchmark has no dependency the vendor directory
//! does not carry. A file is a list of logical blocks; a block's bytes are a
//! pure function of `(seed, len, kind)`. A new version mutates the list with
//! updates (90 %), inserts (5 %) and deletes (5 %) inside the hot prefix.
//!
//! Two things differ from the original on purpose, both to make measured
//! numbers repeat across seeds:
//!
//! * the mutator stops when the bytes of the *new* version that do not occur
//!   in the previous one reach `(1 - dup) × size` — positions are drawn
//!   without replacement and deletes are not counted as change, so the
//!   measured adjacent-version duplication ratio lands on the target
//!   (a naive "count every mutated byte" loop overshoots by tens of percent);
//! * a mutation block that self-references copies another block that is
//!   *fresh in the same version*, so self-reference never leaks into the
//!   cross-version duplication ratio.

/// SplitMix64 step: the seeding / hashing primitive.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++: fast, well-distributed, trivially seedable from one `u64`.
#[derive(Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = mix64(z);
        }
        Rng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`); the bias of the multiply-shift is below 2^-32 for the sizes used here.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        let mut words = out.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = words.into_remainder();
        let last = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&last[..rest.len()]);
    }
}

/// What a block's bytes look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentKind {
    /// Uniform random bytes: incompressible, so the compression plane falls
    /// back to store-raw and chunk boundaries are maximally "random".
    Random,
    /// Row-like delimited text (`key=value|…` lines over a small vocabulary):
    /// compressible *within* a 4 KiB chunk, which is the unit the container
    /// builder compresses.
    RowText,
}

/// Shape of one dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Path prefix of the generated file ids.
    pub name: &'static str,
    /// Per-file adjacent-version duplication ratio; its length is the file
    /// count. A fixed schedule, not drawn from the seed, so every seed has
    /// the same amount of unique data per version.
    pub file_dup: Vec<f64>,
    /// Blocks per file at version 0.
    pub blocks_per_file: usize,
    /// Mean block length in bytes (individual blocks vary ±50 %).
    pub block_len: usize,
    /// Probability that a new block repeats an earlier block's content.
    pub self_ref_rate: f64,
    /// Mutations land inside the leading `hot_fraction` of the block list.
    pub hot_fraction: f64,
    pub kind: ContentKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Block {
    seed: u64,
    len: u32,
}

const WORDS: [&str; 16] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima", "mike", "november", "oscar", "papa",
];
const STATUS: [&str; 4] = ["ACTIVE", "PENDING", "CLOSED", "SUSPENDED"];
const REGIONS: [&str; 4] = ["eu-west-1", "us-east-2", "ap-south-1", "sa-east-1"];

impl Block {
    fn materialize(&self, kind: ContentKind, out: &mut Vec<u8>) {
        let start = out.len();
        let end = start + self.len as usize;
        let mut rng = Rng::new(self.seed);
        match kind {
            ContentKind::Random => {
                out.resize(end, 0);
                rng.fill(&mut out[start..]);
            }
            ContentKind::RowText => {
                use std::io::Write;
                while out.len() < end {
                    let r = rng.next_u64();
                    let q = rng.next_u64();
                    // Labels and vocabulary repeat within a chunk; the
                    // clock, account, amount and signature digits do not.
                    writeln!(
                        out,
                        "ts=2026-09-27T10:{:02}:{:02}Z|level=INFO|service=ledger|account={:08}|owner={} {}|status={}|amount={}.{:02}|region={}|sig={:012x}",
                        r % 60,
                        (r >> 8) % 60,
                        (r >> 16) % 100_000_000,
                        WORDS[(q & 15) as usize],
                        WORDS[((q >> 4) & 15) as usize],
                        STATUS[((q >> 8) & 3) as usize],
                        (q >> 16) % 100_000,
                        (q >> 40) % 100,
                        REGIONS[((q >> 48) & 3) as usize],
                        r >> 16,
                    )
                    .expect("writing to a Vec cannot fail");
                }
                out.truncate(end);
            }
        }
    }
}

/// One planned mutation of a block position.
#[derive(Clone, Copy)]
enum Op {
    /// Remove the block (shifts the tail).
    Delete,
    /// Replace the block's content in place.
    Update(Block),
    /// Splice a new block in front of this one (shifts the tail).
    InsertBefore(Block),
}

struct FileState {
    seed: u64,
    next_seq: u64,
    blocks: Vec<Block>,
}

impl FileState {
    fn fresh_block(&mut self, block_len: usize) -> Block {
        let seed = mix64(self.seed ^ mix64(self.next_seq));
        self.next_seq += 1;
        let spread = block_len / 2;
        let len = block_len - spread + (seed as usize % (2 * spread).max(1));
        Block {
            seed,
            len: len as u32,
        }
    }

    /// Replace the block list with `n` new blocks (self-referencing at the spec's rate).
    fn refill(&mut self, n: usize, rng: &mut Rng, spec: &DatasetSpec) {
        self.blocks.clear();
        self.blocks.reserve(n);
        for _ in 0..n {
            let block = if !self.blocks.is_empty() && rng.unit() < spec.self_ref_rate {
                self.blocks[rng.below(self.blocks.len())]
            } else {
                self.fresh_block(spec.block_len)
            };
            self.blocks.push(block);
        }
    }
}

/// A dataset positioned at one version; [`Dataset::advance`] moves it to the next.
pub struct Dataset {
    spec: DatasetSpec,
    version: u64,
    files: Vec<FileState>,
    /// Block lists of version 0, kept so the oldest version can be
    /// regenerated for verification without holding its bytes.
    v0: Vec<Vec<Block>>,
}

impl Dataset {
    /// Version 0 of the dataset `spec` under `seed`.
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        for &dup in &spec.file_dup {
            // Every position mutates at most once and a twentieth of the
            // picks are deletes, so the hot prefix bounds the reachable change.
            assert!(
                dup == 0.0 || 1.0 - dup <= 0.9 * spec.hot_fraction,
                "dup {dup} needs more change than a hot fraction of {} can hold",
                spec.hot_fraction
            );
        }
        let mut files = Vec::with_capacity(spec.file_dup.len());
        for idx in 0..spec.file_dup.len() {
            let fseed = mix64(seed ^ mix64(idx as u64 + 1));
            let mut file = FileState {
                seed: fseed,
                next_seq: 0,
                blocks: Vec::new(),
            };
            file.refill(spec.blocks_per_file, &mut Rng::new(fseed ^ 0xB10C), &spec);
            files.push(file);
        }
        let v0 = files.iter().map(|f| f.blocks.clone()).collect();
        Dataset {
            spec,
            version: 0,
            files,
            v0,
        }
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Path of file `idx`.
    pub fn file_name(&self, idx: usize) -> String {
        format!("{}/file_{idx:04}", self.spec.name)
    }

    /// Move to the next version.
    pub fn advance(&mut self) {
        self.version += 1;
        let spec = &self.spec;
        for (idx, file) in self.files.iter_mut().enumerate() {
            let dup = spec.file_dup[idx];
            let mut rng = Rng::new(mix64(file.seed ^ mix64(self.version) ^ 0xBEEF));
            if dup <= 0.0 {
                // Every version fresh: same shape, all-new content.
                file.refill(file.blocks.len(), &mut rng, spec);
                continue;
            }
            let total: u64 = file.blocks.iter().map(|b| b.len as u64).sum();
            let target = ((1.0 - dup) * total as f64) as u64;
            let mut fresh_bytes = 0u64;
            let mut fresh: Vec<Block> = Vec::new();
            // One planned operation per position at most, so no mutation is
            // later overwritten and `fresh_bytes` is exact.
            let mut plan: Vec<Option<Op>> = vec![None; file.blocks.len()];
            let hot = ((file.blocks.len() as f64) * spec.hot_fraction.clamp(0.0, 1.0)).ceil();
            let mut untouched: Vec<usize> =
                (0..(hot as usize).clamp(1, file.blocks.len())).collect();
            while fresh_bytes < target && !untouched.is_empty() {
                let pick = rng.below(untouched.len());
                let pos = untouched.swap_remove(pick);
                let op = rng.below(20);
                if op == 0 {
                    plan[pos] = Some(Op::Delete);
                    continue;
                }
                let block = if !fresh.is_empty() && rng.unit() < spec.self_ref_rate {
                    fresh[rng.below(fresh.len())]
                } else {
                    file.fresh_block(spec.block_len)
                };
                fresh.push(block);
                fresh_bytes += block.len as u64;
                plan[pos] = Some(if op == 1 {
                    Op::InsertBefore(block)
                } else {
                    Op::Update(block)
                });
            }
            let mut next = Vec::with_capacity(file.blocks.len() + 16);
            for (old, op) in file.blocks.iter().zip(plan) {
                match op {
                    None => next.push(*old),
                    Some(Op::Delete) => {}
                    Some(Op::Update(b)) => next.push(b),
                    Some(Op::InsertBefore(b)) => next.extend([b, *old]),
                }
            }
            file.blocks = next;
        }
    }

    /// Bytes of every file at the current version, as `(name, bytes)`.
    pub fn materialize(&self) -> Vec<(String, Vec<u8>)> {
        self.render(self.files.iter().map(|f| f.blocks.as_slice()))
    }

    /// Bytes of every file at version 0.
    pub fn materialize_v0(&self) -> Vec<(String, Vec<u8>)> {
        self.render(self.v0.iter().map(|b| b.as_slice()))
    }

    fn render<'a>(&self, lists: impl Iterator<Item = &'a [Block]>) -> Vec<(String, Vec<u8>)> {
        lists
            .enumerate()
            .map(|(idx, blocks)| {
                let total: usize = blocks.iter().map(|b| b.len as usize).sum();
                let mut out = Vec::with_capacity(total);
                for b in blocks {
                    b.materialize(self.spec.kind, &mut out);
                }
                (self.file_name(idx), out)
            })
            .collect()
    }

    /// Block lists of the current version, for ratio measurements in tests.
    #[cfg(test)]
    fn block_lists(&self) -> Vec<Vec<Block>> {
        self.files.iter().map(|f| f.blocks.clone()).collect()
    }
}

/// Share of the bytes of `new` that sit in blocks also present in `old`
/// (multiset semantics, like `Workload::measured_dup_ratio`).
#[cfg(test)]
fn dup_ratio(old: &[Block], new: &[Block]) -> f64 {
    let mut counts: std::collections::HashMap<Block, usize> = std::collections::HashMap::new();
    for b in old {
        *counts.entry(*b).or_default() += 1;
    }
    let total: u64 = new.iter().map(|b| b.len as u64).sum();
    let mut dup = 0u64;
    for b in new {
        if let Some(c) = counts.get_mut(b) {
            if *c > 0 {
                *c -= 1;
                dup += b.len as u64;
            }
        }
    }
    dup as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: ContentKind, dup: &[f64], self_ref: f64) -> DatasetSpec {
        DatasetSpec {
            name: "t",
            file_dup: dup.to_vec(),
            blocks_per_file: 512,
            block_len: 2048,
            self_ref_rate: self_ref,
            hot_fraction: 0.35,
            kind,
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for kind in [ContentKind::Random, ContentKind::RowText] {
            let mut a = Dataset::new(spec(kind, &[0.9, 0.7], 0.2), 7);
            let mut b = Dataset::new(spec(kind, &[0.9, 0.7], 0.2), 7);
            let c = Dataset::new(spec(kind, &[0.9, 0.7], 0.2), 8);
            assert_eq!(a.materialize(), b.materialize());
            assert_ne!(a.materialize(), c.materialize());
            a.advance();
            b.advance();
            assert_eq!(a.materialize(), b.materialize());
            assert_eq!(
                a.materialize_v0(),
                Dataset::new(spec(kind, &[0.9, 0.7], 0.2), 7).materialize()
            );
        }
    }

    #[test]
    fn adjacent_version_dup_ratio_hits_the_target() {
        let targets = [0.70, 0.80, 0.92, 0.95];
        for (seed, self_ref) in [(1, 0.0), (2, 0.2), (3, 0.2)] {
            let mut d = Dataset::new(spec(ContentKind::Random, &targets, self_ref), seed);
            for version in 1..=4 {
                let old = d.block_lists();
                d.advance();
                for (idx, new) in d.block_lists().iter().enumerate() {
                    let measured = dup_ratio(&old[idx], new);
                    assert!(
                        (measured - targets[idx]).abs() <= 0.02,
                        "seed {seed} v{version} file {idx}: measured {measured:.4}, target {}",
                        targets[idx]
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_versions_share_nothing_and_mutations_shift_offsets() {
        let mut d = Dataset::new(spec(ContentKind::RowText, &[0.0], 0.0), 3);
        let old = d.block_lists();
        d.advance();
        assert_eq!(dup_ratio(&old[0], &d.block_lists()[0]), 0.0);

        let mut d = Dataset::new(spec(ContentKind::Random, &[0.8], 0.0), 3);
        let sizes: Vec<usize> = (0..4)
            .map(|_| {
                let n = d.materialize()[0].1.len();
                d.advance();
                n
            })
            .collect();
        assert!(
            sizes.windows(2).any(|w| w[0] != w[1]),
            "no insert/delete in {sizes:?}"
        );
    }

    #[test]
    fn mutations_stay_in_the_hot_prefix() {
        let mut d = Dataset::new(spec(ContentKind::Random, &[0.9], 0.0), 5);
        let old = d.block_lists().remove(0);
        d.advance();
        let new = d.block_lists().remove(0);
        // The cold tail (last 60 % of blocks) is carried over verbatim.
        let tail = old.len() * 6 / 10;
        assert_eq!(old[old.len() - tail..], new[new.len() - tail..]);
    }
}
