//! The multi-version file generator.
//!
//! Every file is a sequence of *logical blocks*; a block's bytes are a pure
//! function of its `(seed, len)`. A new version mutates the block list:
//!
//! * **update** — replace a block's seed (content changes in place);
//! * **insert** — splice in a brand-new block (shifts everything after it —
//!   the boundary-shift case fixed-size chunking cannot handle);
//! * **delete** — remove a block (also shifts).
//!
//! The number of mutated bytes per version is `(1 - dup_ratio) ×
//! file_size`, so the *duplication ratio between adjacent versions* is the
//! `dup_ratio` knob. Self-reference is injected at generation time: a block
//! reuses an earlier block's seed with probability `self_ref_rate`, creating
//! identical chunk runs *within* one version stream (§V-A's self-reference
//! fragments).

use slim_types::rng::{mix64, Rng};
use slim_types::FileId;

/// Configuration of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Dataset name (for reports).
    pub name: String,
    /// Number of files.
    pub files: usize,
    /// Number of backup versions (version 0 is the initial full backup).
    pub versions: usize,
    /// Logical blocks per file at version 0.
    pub blocks_per_file: usize,
    /// Mean block length in bytes (individual blocks vary ±50 %).
    pub block_len: usize,
    /// Per-file duplication ratio range; file `i` gets a ratio interpolated
    /// across `[min, max]` (the paper's S-DB tables span 0.65–0.95).
    pub dup_ratio_min: f64,
    /// Upper bound of the per-file duplication ratio range.
    pub dup_ratio_max: f64,
    /// Probability that a block duplicates an earlier block of the same file.
    pub self_ref_rate: f64,
    /// Fraction of the file that is *hot*: every mutation lands inside the
    /// leading `hot_fraction` of the block list, so the cold remainder stays
    /// byte-stable across versions — the update pattern of real database
    /// files, where old pages essentially never change. `1.0` mutates
    /// uniformly.
    pub hot_fraction: f64,
    /// Master seed; all content is a pure function of this.
    pub seed: u64,
}

impl WorkloadConfig {
    /// S-DB-shaped dataset (Table I): per-file dup ratio 0.65–0.95
    /// (average 0.84 with uniform spread... the paper's average), 25
    /// versions, 20 % self-reference. `scale` multiplies file count and
    /// per-file size; `scale = 1.0` is a laptop-sized ~64 MB/version.
    pub fn sdb(scale: f64) -> Self {
        WorkloadConfig {
            name: "S-DB".into(),
            files: ((10.0 * scale).round() as usize).max(2),
            versions: 25,
            blocks_per_file: 800,
            block_len: 8 * 1024,
            dup_ratio_min: 0.65,
            dup_ratio_max: 0.95,
            self_ref_rate: 0.20,
            hot_fraction: 0.35,
            seed: 0x5DB0,
        }
    }

    /// R-Data-shaped dataset (Table I): many smaller files, dup ratio 0.92,
    /// 13 versions, negligible self-reference.
    pub fn rdata(scale: f64) -> Self {
        WorkloadConfig {
            name: "R-Data".into(),
            files: ((74.0 * scale).round() as usize).max(4),
            versions: 13,
            blocks_per_file: 96,
            block_len: 8 * 1024,
            dup_ratio_min: 0.92,
            dup_ratio_max: 0.92,
            self_ref_rate: 0.001,
            hot_fraction: 0.35,
            seed: 0x4DA7A,
        }
    }

    /// A tiny deterministic dataset for unit/integration tests.
    pub fn tiny_for_tests() -> Self {
        WorkloadConfig {
            name: "tiny".into(),
            files: 3,
            versions: 5,
            blocks_per_file: 24,
            block_len: 512,
            dup_ratio_min: 0.70,
            dup_ratio_max: 0.95,
            self_ref_rate: 0.15,
            hot_fraction: 1.0,
            seed: 42,
        }
    }
}

/// One logical block of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockRef {
    seed: u64,
    len: u32,
}

impl BlockRef {
    fn materialize(&self, out: &mut Vec<u8>) {
        let mut rng = Rng::seed_from_u64(self.seed);
        let start = out.len();
        out.resize(start + self.len as usize, 0);
        rng.fill_bytes(&mut out[start..]);
    }
}

/// The bytes of one file at one version, plus provenance.
#[derive(Debug, Clone)]
pub struct FileVersion {
    /// The file's id (path).
    pub file: FileId,
    /// Version number.
    pub version: usize,
    /// File contents.
    pub data: Vec<u8>,
}

/// A deterministic multi-version workload.
///
/// ```
/// use slim_workload::{Workload, WorkloadConfig};
/// let w = Workload::new(WorkloadConfig::tiny_for_tests());
/// // Fully deterministic: same config, same bytes.
/// assert_eq!(w.file_bytes(0, 1), Workload::new(WorkloadConfig::tiny_for_tests()).file_bytes(0, 1));
/// // Adjacent versions share most content (the dedup opportunity).
/// assert!(w.measured_dup_ratio(0, 1) > 0.5);
/// ```
pub struct Workload {
    config: WorkloadConfig,
}

impl Workload {
    /// Build a workload from its config.
    pub fn new(config: WorkloadConfig) -> Self {
        Workload { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Ids of all files, in stable order.
    pub fn file_ids(&self) -> Vec<FileId> {
        (0..self.config.files).map(|i| self.file_id(i)).collect()
    }

    /// Id of file `idx`.
    pub fn file_id(&self, idx: usize) -> FileId {
        FileId::new(format!("{}/file_{idx:04}", self.config.name.to_lowercase()))
    }

    /// Duplication ratio assigned to file `idx` (interpolated across the
    /// configured range).
    pub fn file_dup_ratio(&self, idx: usize) -> f64 {
        if self.config.files <= 1 {
            return (self.config.dup_ratio_min + self.config.dup_ratio_max) / 2.0;
        }
        let t = idx as f64 / (self.config.files - 1) as f64;
        self.config.dup_ratio_min + t * (self.config.dup_ratio_max - self.config.dup_ratio_min)
    }

    fn file_seed(&self, idx: usize) -> u64 {
        mix64(self.config.seed ^ mix64(idx as u64 + 1))
    }

    /// The block list of file `idx` at `version`, derived by replaying the
    /// mutation history from version 0.
    fn blocks_at(&self, idx: usize, version: usize) -> Vec<BlockRef> {
        let fseed = self.file_seed(idx);
        let mut rng = Rng::seed_from_u64(fseed);
        let mut blocks: Vec<BlockRef> = Vec::with_capacity(self.config.blocks_per_file);
        let mut next_block_seq: u64 = 0;
        let new_block = |rng: &mut Rng, blocks: &[BlockRef], seq: &mut u64| -> BlockRef {
            // Self-reference: reuse an earlier block's seed.
            if !blocks.is_empty() && rng.gen_bool(self.config.self_ref_rate) {
                let src = blocks[rng.gen_range(0..blocks.len())];
                return src;
            }
            let seed = mix64(fseed ^ mix64(*seq));
            *seq += 1;
            let spread = self.config.block_len / 2;
            let len =
                (self.config.block_len - spread + (seed as usize % (2 * spread).max(1))) as u32;
            BlockRef { seed, len }
        };
        for _ in 0..self.config.blocks_per_file {
            let b = new_block(&mut rng, &blocks, &mut next_block_seq);
            blocks.push(b);
        }
        let dup_ratio = self.file_dup_ratio(idx);
        for v in 1..=version {
            let mut vrng = Rng::seed_from_u64(mix64(fseed ^ mix64(v as u64) ^ 0xBEEF));
            let total_bytes: u64 = blocks.iter().map(|b| b.len as u64).sum();
            let change_bytes = ((1.0 - dup_ratio) * total_bytes as f64) as u64;
            let mut changed: u64 = 0;
            // Every mutation lands inside the hot prefix; the cold tail is
            // byte-stable across versions.
            let hot = self.config.hot_fraction.clamp(0.0, 1.0);
            let skewed = |rng: &mut Rng, len: usize| -> usize {
                let hot_len = ((len as f64) * hot).ceil().max(1.0) as usize;
                rng.gen_range(0..hot_len.min(len.max(1)))
            };
            while changed < change_bytes && !blocks.is_empty() {
                let op = vrng.gen_range(0..10u8);
                match op {
                    0 => {
                        // insert: new content, shifts the tail
                        let pos = skewed(&mut vrng, blocks.len() + 1).min(blocks.len());
                        let b = new_block(&mut vrng, &blocks, &mut next_block_seq);
                        changed += b.len as u64;
                        blocks.insert(pos, b);
                    }
                    1 => {
                        // delete: shifts the tail
                        let pos = skewed(&mut vrng, blocks.len());
                        let b = blocks.remove(pos);
                        changed += b.len as u64;
                    }
                    _ => {
                        // update in place
                        let pos = skewed(&mut vrng, blocks.len());
                        let b = new_block(&mut vrng, &blocks, &mut next_block_seq);
                        changed += b.len as u64;
                        blocks[pos] = b;
                    }
                }
            }
        }
        blocks
    }

    /// Bytes of file `idx` at `version`.
    pub fn file_bytes(&self, idx: usize, version: usize) -> Vec<u8> {
        assert!(idx < self.config.files, "file index out of range");
        assert!(version < self.config.versions, "version out of range");
        let blocks = self.blocks_at(idx, version);
        let total: usize = blocks.iter().map(|b| b.len as usize).sum();
        let mut out = Vec::with_capacity(total);
        for b in &blocks {
            b.materialize(&mut out);
        }
        out
    }

    /// All files of one version (generated lazily, one at a time).
    pub fn version_files(&self, version: usize) -> impl Iterator<Item = FileVersion> + '_ {
        (0..self.config.files).map(move |idx| FileVersion {
            file: self.file_id(idx),
            version,
            data: self.file_bytes(idx, version),
        })
    }

    /// Block-level duplication ratio between adjacent versions of a file:
    /// (bytes of blocks present in both) / (bytes of the newer version).
    pub fn measured_dup_ratio(&self, idx: usize, version: usize) -> f64 {
        assert!(version >= 1);
        use std::collections::HashMap;
        let old = self.blocks_at(idx, version - 1);
        let new = self.blocks_at(idx, version);
        let mut old_counts: HashMap<(u64, u32), usize> = HashMap::new();
        for b in &old {
            *old_counts.entry((b.seed, b.len)).or_default() += 1;
        }
        let total: u64 = new.iter().map(|b| b.len as u64).sum();
        let mut dup: u64 = 0;
        for b in &new {
            if let Some(c) = old_counts.get_mut(&(b.seed, b.len)) {
                if *c > 0 {
                    *c -= 1;
                    dup += b.len as u64;
                }
            }
        }
        if total == 0 {
            return 0.0;
        }
        dup as f64 / total as f64
    }

    /// Fraction of a file's bytes at `version` that duplicate *earlier*
    /// bytes of the same file (the self-reference metric of Table I).
    pub fn measured_self_reference(&self, idx: usize, version: usize) -> f64 {
        use std::collections::HashSet;
        let blocks = self.blocks_at(idx, version);
        let mut seen: HashSet<(u64, u32)> = HashSet::new();
        let total: u64 = blocks.iter().map(|b| b.len as u64).sum();
        let mut self_ref: u64 = 0;
        for b in &blocks {
            if !seen.insert((b.seed, b.len)) {
                self_ref += b.len as u64;
            }
        }
        if total == 0 {
            return 0.0;
        }
        self_ref as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let w1 = Workload::new(WorkloadConfig::tiny_for_tests());
        let w2 = Workload::new(WorkloadConfig::tiny_for_tests());
        for v in 0..3 {
            for f in 0..3 {
                assert_eq!(w1.file_bytes(f, v), w2.file_bytes(f, v), "file {f} v{v}");
            }
        }
    }

    #[test]
    fn versions_differ_but_share_content() {
        let w = Workload::new(WorkloadConfig::tiny_for_tests());
        let v0 = w.file_bytes(0, 0);
        let v1 = w.file_bytes(0, 1);
        assert_ne!(v0, v1, "versions must differ");
        // Block-level dup ratio should be near the configured value.
        let ratio = w.measured_dup_ratio(0, 1);
        let target = w.file_dup_ratio(0);
        assert!(
            (ratio - target).abs() < 0.15,
            "measured {ratio} vs target {target}"
        );
    }

    #[test]
    fn dup_ratio_interpolates_across_files() {
        let cfg = WorkloadConfig::sdb(0.3);
        let w = Workload::new(cfg.clone());
        assert!((w.file_dup_ratio(0) - cfg.dup_ratio_min).abs() < 1e-9);
        assert!((w.file_dup_ratio(cfg.files - 1) - cfg.dup_ratio_max).abs() < 1e-9);
        let mid = w.file_dup_ratio(cfg.files / 2);
        assert!(mid > cfg.dup_ratio_min && mid < cfg.dup_ratio_max);
    }

    #[test]
    fn self_reference_rate_tracks_config() {
        let mut cfg = WorkloadConfig::tiny_for_tests();
        cfg.blocks_per_file = 400;
        cfg.self_ref_rate = 0.20;
        let w = Workload::new(cfg);
        let r = w.measured_self_reference(0, 0);
        assert!(
            (r - 0.20).abs() < 0.08,
            "self-reference {r} too far from 0.20"
        );
        let mut cfg0 = WorkloadConfig::tiny_for_tests();
        cfg0.blocks_per_file = 400;
        cfg0.self_ref_rate = 0.0;
        let w0 = Workload::new(cfg0);
        assert_eq!(w0.measured_self_reference(0, 0), 0.0);
    }

    #[test]
    fn file_sizes_are_roughly_stable_across_versions() {
        let w = Workload::new(WorkloadConfig::tiny_for_tests());
        let s0 = w.file_bytes(1, 0).len() as f64;
        let s4 = w.file_bytes(1, 4).len() as f64;
        assert!(
            (s4 / s0 - 1.0).abs() < 0.5,
            "file size drifted too much: {s0} -> {s4}"
        );
    }

    #[test]
    fn version_files_iterates_all() {
        let w = Workload::new(WorkloadConfig::tiny_for_tests());
        let files: Vec<_> = w.version_files(0).collect();
        assert_eq!(files.len(), 3);
        assert_eq!(files[0].file, w.file_id(0));
        assert_eq!(files[0].version, 0);
        assert!(!files[0].data.is_empty());
        let ids = w.file_ids();
        assert_eq!(ids.len(), 3);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    #[should_panic(expected = "version out of range")]
    fn version_bounds_checked() {
        let w = Workload::new(WorkloadConfig::tiny_for_tests());
        w.file_bytes(0, 99);
    }

    #[test]
    fn mutations_include_shifts() {
        // After several versions the file must contain at least one
        // insert/delete (size change), not just in-place updates.
        let w = Workload::new(WorkloadConfig::tiny_for_tests());
        let sizes: Vec<usize> = (0..5).map(|v| w.file_bytes(2, v).len()).collect();
        assert!(
            sizes.windows(2).any(|p| p[0] != p[1]),
            "no shifting mutation ever happened: {sizes:?}"
        );
    }

    #[test]
    fn presets_have_paper_statistics() {
        let sdb = WorkloadConfig::sdb(1.0);
        assert_eq!(sdb.versions, 25);
        assert!((sdb.dup_ratio_min - 0.65).abs() < 1e-9);
        assert!((sdb.dup_ratio_max - 0.95).abs() < 1e-9);
        assert!((sdb.self_ref_rate - 0.20).abs() < 1e-9);
        let rdata = WorkloadConfig::rdata(1.0);
        assert_eq!(rdata.versions, 13);
        assert!((rdata.dup_ratio_min - 0.92).abs() < 1e-9);
        assert!(rdata.files > sdb.files, "R-Data has many more files");
    }
}
