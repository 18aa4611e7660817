//! Gear-hash content-defined chunking.
//!
//! Gear (Xia et al., "Ddelta", Performance Evaluation 2014) replaces the
//! Rabin polynomial with `h = (h << 1) + GEAR[byte]`: one shift, one add and
//! one table lookup per byte. The hash depends on the last 64 bytes (older
//! bytes have shifted out of the word), so it behaves like a 64-byte sliding
//! window at a fraction of Rabin's cost.

use slim_types::rng::Rng;

use crate::{ChunkSpec, Chunker};

/// Effective window: a byte's influence is gone after 64 left-shifts.
pub const GEAR_WINDOW: usize = 64;

/// The 256 random gear constants, generated deterministically from SplitMix64
/// so every build of the library chunks identically (draws 2..=257 of the
/// stream; pinned by `gear_table_is_pinned`).
pub(crate) fn gear_table() -> [u64; 256] {
    let mut rng = Rng::seed_from_u64(0x6c62_272e_07bb_0142);
    rng.next_u64();
    [(); 256].map(|_| rng.next_u64())
}

/// Gear-hash CDC chunker.
pub struct GearChunker {
    spec: ChunkSpec,
    table: [u64; 256],
}

impl GearChunker {
    /// Chunker with the given size bounds.
    pub fn new(spec: ChunkSpec) -> Self {
        GearChunker {
            spec,
            table: gear_table(),
        }
    }

    #[inline]
    fn is_cut(&self, hash: u64) -> bool {
        // Use the high bits of the mask (gear hashes concentrate entropy in
        // high bits because of the left shift).
        (hash & (self.spec.mask() << 32)) == 0
    }

    fn window_hash(&self, data: &[u8], start: usize, end: usize) -> u64 {
        let from = start.max(end.saturating_sub(GEAR_WINDOW));
        let mut h: u64 = 0;
        for &b in &data[from..end] {
            h = (h << 1).wrapping_add(self.table[b as usize]);
        }
        h
    }
}

impl Chunker for GearChunker {
    fn spec(&self) -> ChunkSpec {
        self.spec
    }

    fn next_boundary(&self, data: &[u8], start: usize) -> usize {
        let remaining = data.len() - start;
        if remaining <= self.spec.min {
            return data.len();
        }
        let scan_end = (start + self.spec.max).min(data.len());
        let mut h: u64 = 0;
        let warm_from = start.max((start + self.spec.min).saturating_sub(GEAR_WINDOW));
        for &b in &data[warm_from..start + self.spec.min] {
            h = (h << 1).wrapping_add(self.table[b as usize]);
        }
        for pos in start + self.spec.min..scan_end {
            h = (h << 1).wrapping_add(self.table[data[pos] as usize]);
            if self.is_cut(h) {
                return pos + 1;
            }
        }
        scan_end
    }

    fn is_boundary(&self, data: &[u8], start: usize, end: usize) -> bool {
        debug_assert!(end > start && end <= data.len());
        let len = end - start;
        if len > self.spec.max {
            return false;
        }
        if len == self.spec.max || end == data.len() {
            return true;
        }
        if len < self.spec.min {
            return false;
        }
        self.is_cut(self.window_hash(data, start, end))
    }

    fn name(&self) -> &'static str {
        "gear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_chunk_invariants, random_data};

    fn chunker() -> GearChunker {
        GearChunker::new(ChunkSpec::new(64, 256, 1024))
    }

    // Golden vector: the table decides every FastCDC/Gear cut point, so a
    // change here re-chunks every stored repository.
    #[test]
    fn gear_table_is_pinned() {
        let table = gear_table();
        assert_eq!(table[0], 0x8070_11EB_BB31_3DC0);
        assert_eq!(table[255], 0x631E_E052_4B6F_D9A7);
        assert_eq!(table.iter().fold(0, |a, b| a ^ b), 0x720F_026E_302D_FCED);
    }

    #[test]
    fn covers_buffer_and_respects_spec() {
        let c = chunker();
        for seed in 0..4 {
            check_chunk_invariants(&c, &random_data(64 * 1024, seed));
        }
    }

    #[test]
    fn warm_window_consistency() {
        // The probe must agree with the scanner on every boundary.
        let c = chunker();
        let data = random_data(100_000, 5);
        let mut pos = 0;
        while pos < data.len() {
            let end = c.next_boundary(&data, pos);
            assert!(c.is_boundary(&data, pos, end), "disagreement at {end}");
            pos = end;
        }
    }

    #[test]
    fn average_near_target() {
        let c = chunker();
        let data = random_data(512 * 1024, 11);
        let mut count = 0;
        let mut pos = 0;
        while pos < data.len() {
            pos = c.next_boundary(&data, pos);
            count += 1;
        }
        let avg = data.len() / count;
        assert!((128..=640).contains(&avg), "avg {avg}");
    }

    #[test]
    fn zero_filled_data_still_progresses() {
        let c = chunker();
        let data = vec![0u8; 10_000];
        check_chunk_invariants(&c, &data);
    }
}
