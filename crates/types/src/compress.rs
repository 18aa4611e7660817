//! Per-chunk LZ compression for container payloads.
//!
//! A dependency-free, deterministic LZSS codec: greedy longest-match
//! parsing over hash chains, emitting flag-grouped literal/match tokens.
//! Each chunk compresses independently, so container range reads, XOR
//! parity groups and CRC trailers keep operating over stored bytes with no
//! knowledge of the codec; only the final per-entry decode step differs.
//!
//! Framing (no per-chunk header — the container entry's `raw_len` is the
//! authoritative output length):
//!
//! * a *flags* byte precedes every group of up to 8 tokens; bit `i`
//!   (LSB-first) describes token `i`;
//! * flag 0 — a literal: one raw byte;
//! * flag 1 — a match: `u16` little-endian backward distance
//!   (`1..=65535`, never beyond the bytes already produced) followed by
//!   one length byte encoding `match_len - MIN_MATCH`
//!   (`MIN_MATCH..=MIN_MATCH + 255` bytes).
//!
//! [`compress`] is strict about profitability: it returns `None` unless the
//! encoded form is *strictly* smaller than the input, so incompressible
//! chunks are stored raw and the `stored len == raw len` equality is the
//! (tag-free) marker for an uncompressed entry. [`decompress`] is strict
//! about shape: it must produce exactly the expected number of bytes from
//! exactly the provided input, and any violation — bad distance, output
//! overrun, input underrun, trailing bytes — is a [`SlimError::Corrupt`].
//!
//! **Search decay.** A position whose hash chain yields no match is a
//! *miss*. After `DECAY_AFTER` consecutive misses the encoder stops
//! probing every position: the stride between probes grows by one every
//! `1 << DECAY_SHIFT` further misses (up to `MAX_STRIDE`) and the bytes in
//! between go out as literals unsearched and unindexed. The first match
//! resets the stride to one, so a chunk with a noisy head and a compressible
//! body still compresses, while pure noise costs a few hundred probes per
//! chunk instead of one per byte. The rule only decides *where* the encoder
//! looks; the tokens it emits are ordinary ones, so the wire format and
//! [`decompress`] know nothing of it.

use std::cell::RefCell;

use crate::error::{Result, SlimError};

/// Shortest back-reference worth encoding: a match token costs 3 bytes
/// (+1/8 flag), so 4 literal bytes is the break-even point.
pub const MIN_MATCH: usize = 4;

/// Longest encodable match (`MIN_MATCH + 255`).
pub const MAX_MATCH: usize = MIN_MATCH + 255;

/// Farthest encodable backward distance (`u16` wire format, 0 reserved).
pub const MAX_DISTANCE: usize = 65_535;

/// Hash-chain search depth. Bounded for throughput; determinism comes from
/// the scan itself, not the bound — the same input always walks the same
/// chain.
const MAX_CHAIN: usize = 64;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Consecutive misses tolerated at stride one. Structured data (row text,
/// page headers) rarely goes this long without a match, so its output is
/// unchanged by the decay rule; 32 already cost 1 % on row text.
const DECAY_AFTER: u32 = 128;
/// The stride grows by one every `1 << DECAY_SHIFT` misses past
/// [`DECAY_AFTER`].
const DECAY_SHIFT: u32 = 5;
/// Ceiling of the probe stride: bounds how many compressible bytes can slip
/// by unsearched when structure resumes after a long noisy run.
const MAX_STRIDE: usize = 16;

/// `prev` is a ring over the last `RING` stamps: a chain is never followed
/// past [`MAX_DISTANCE`], so older links are dead by construction.
const RING: usize = MAX_DISTANCE + 1;

/// Positions are stamped into the `u32` scratch tables; inputs that do not
/// fit beside the inter-call gap are stored raw. (A container data object is
/// bounded by `u32` offsets anyway.)
const MAX_INPUT: usize = u32::MAX as usize - 2 * RING;

#[inline]
fn hash4(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped at
/// `limit` (`a < b`, `b + limit <= input.len()`), eight bytes per compare.
#[inline]
fn common_prefix(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&input[a..a + limit], &input[b..b + limit]);
    let mut l = 0usize;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let wx = u64::from_le_bytes(wx.try_into().expect("chunks_exact(8)"));
        let wy = u64::from_le_bytes(wy.try_into().expect("chunks_exact(8)"));
        let diff = wx ^ wy;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && x[l] == y[l] {
        l += 1;
    }
    l
}

/// The match finder's tables, reused across calls on one thread.
///
/// Entries are *stamps*: `base + position`, with `base` advanced past the
/// previous call's stamps by more than [`MAX_DISTANCE`]. A stamp left behind
/// by an earlier input is therefore farther than any encodable distance from
/// every position of the current one and ends the chain walk exactly like an
/// empty slot — no per-call clearing, and no way for one input's history to
/// reach another's output. When the stamp space runs out `head` is zeroed
/// (`prev` is only ever read behind a live `head` entry) and `base` starts
/// over.
struct Scratch {
    /// Most recent stamp per hash bucket.
    head: Vec<u32>,
    /// Stamp of the previous position with the same hash, indexed by
    /// `stamp % RING`.
    prev: Vec<u32>,
    /// First stamp of the next call.
    next_base: u32,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        head: vec![0; HASH_SIZE],
        prev: vec![0; RING],
        // Zeroed slots must read as "too far" from the very first position.
        next_base: RING as u32,
    });
}

impl Scratch {
    /// Reserve `len` stamps and return the first.
    fn open(&mut self, len: usize) -> u32 {
        let span = (len + RING) as u32; // len <= MAX_INPUT
        let base = match self.next_base.checked_add(span) {
            Some(_) => self.next_base,
            None => {
                self.head.fill(0);
                RING as u32
            }
        };
        self.next_base = base + span;
        base
    }

    #[inline]
    fn insert(&mut self, h: usize, stamp: u32) {
        self.prev[stamp as usize % RING] = self.head[h];
        self.head[h] = stamp;
    }
}

/// Token writer: literals and matches behind LSB-first flag bytes.
struct Encoder {
    out: Vec<u8>,
    /// Index of the open group's flags byte.
    flags_at: usize,
    /// Tokens in the open group; 8 = none open.
    used: usize,
}

impl Encoder {
    /// Encoded size if `pending` more literals were written now.
    #[inline]
    fn len_with_literals(&self, pending: usize) -> usize {
        let new_groups = (pending + self.used - 1) / 8; // used >= 1 once anything is out
        self.out.len() + pending + new_groups
    }

    fn literals(&mut self, run: &[u8]) {
        let (fill, rest) = run.split_at(run.len().min(8 - self.used));
        self.out.extend_from_slice(fill);
        self.used += fill.len();
        let mut groups = rest.chunks_exact(8);
        for g in &mut groups {
            let mut token = [0u8; 9]; // zero flags byte + eight literals
            token[1..].copy_from_slice(g);
            self.out.extend_from_slice(&token);
        }
        let tail = groups.remainder();
        if !tail.is_empty() {
            self.flags_at = self.out.len();
            self.out.push(0);
            self.out.extend_from_slice(tail);
            self.used = tail.len();
        }
    }

    fn matched(&mut self, dist: usize, len: usize) {
        if self.used == 8 {
            self.flags_at = self.out.len();
            self.out.push(0);
            self.used = 0;
        }
        self.out[self.flags_at] |= 1 << self.used;
        self.used += 1;
        self.out.extend_from_slice(&(dist as u16).to_le_bytes());
        self.out.push((len - MIN_MATCH) as u8);
    }
}

/// Compress `input` with greedy LZSS. Returns the encoded bytes only when
/// they are strictly smaller than `input`; `None` means "store raw".
///
/// Pure function of `input` — byte-identical output across runs, platforms,
/// threads and call histories (the reused scratch tables carry nothing from
/// one input into the next), which keeps recompression during G-node
/// rewrites convergent and pipelined backups byte-identical to sequential
/// ones.
pub fn compress(input: &[u8]) -> Option<Vec<u8>> {
    if input.len() < MIN_MATCH + 1 || input.len() > MAX_INPUT {
        return None;
    }
    SCRATCH.with(|scratch| encode(input, &mut scratch.borrow_mut()))
}

fn encode(input: &[u8], scratch: &mut Scratch) -> Option<Vec<u8>> {
    let base = scratch.open(input.len());
    let mut enc = Encoder {
        out: Vec::with_capacity(input.len()),
        flags_at: 0,
        used: 8,
    };
    // Literals in `anchor..pos` are decided but not yet written.
    let mut anchor = 0usize;
    let mut pos = 0usize;
    let mut misses = 0u32;
    while pos + MIN_MATCH <= input.len() {
        let stamp = base + pos as u32;
        let h = hash4(&input[pos..]);
        let limit = (input.len() - pos).min(MAX_MATCH);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut candidate = scratch.head[h];
        for _ in 0..MAX_CHAIN {
            // Stamps only get older along a chain; an empty slot or another
            // input's stamp is older than any encodable distance.
            let dist = (stamp - candidate) as usize;
            if dist > MAX_DISTANCE {
                break;
            }
            let at = pos - dist;
            // A candidate can only win by matching past the current best.
            if input[at + best_len] == input[pos + best_len] {
                let l = common_prefix(input, at, pos, limit);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == limit {
                        break;
                    }
                }
            }
            candidate = scratch.prev[candidate as usize % RING];
        }
        scratch.insert(h, stamp);
        if best_len >= MIN_MATCH {
            enc.literals(&input[anchor..pos]);
            enc.matched(best_dist, best_len);
            // Index the interior positions of the match so later matches can
            // start inside it.
            let interior_end = (pos + best_len).min(input.len() - MIN_MATCH + 1);
            for p in pos + 1..interior_end {
                scratch.insert(hash4(&input[p..]), base + p as u32);
            }
            pos += best_len;
            anchor = pos;
            misses = 0;
        } else {
            misses += 1;
            let decay = (misses.saturating_sub(DECAY_AFTER) >> DECAY_SHIFT) as usize;
            pos += 1 + decay.min(MAX_STRIDE - 1);
        }
        let pending = pos.min(input.len()) - anchor;
        if enc.len_with_literals(pending) >= input.len() {
            return None; // already unprofitable; stop early
        }
    }
    enc.literals(&input[anchor..]);
    if enc.out.len() < input.len() {
        Some(enc.out)
    } else {
        None
    }
}

/// Decompress `input` into exactly `raw_len` bytes.
///
/// Every structural violation is a [`SlimError::Corrupt`]: a distance of 0
/// or beyond the produced output, a token that would overrun `raw_len`, a
/// truncated token, or trailing input bytes after the output is complete.
pub fn decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let corrupt = |detail: String| SlimError::corrupt("compressed chunk", detail);
    let mut out: Vec<u8> = Vec::with_capacity(raw_len);
    let mut i = 0usize;
    while out.len() < raw_len {
        if i >= input.len() {
            return Err(corrupt(format!(
                "input exhausted at {i} with {} of {raw_len} bytes produced",
                out.len()
            )));
        }
        let flags = input[i];
        i += 1;
        // Eight literals in one copy. A group cut short by either end falls
        // through to the token loop, which names the exact violation.
        if flags == 0 && raw_len - out.len() >= 8 {
            if let Some(run) = input.get(i..i + 8) {
                out.extend_from_slice(run);
                i += 8;
                continue;
            }
        }
        let mut bit = 0u8;
        while bit < 8 && out.len() < raw_len {
            if flags & (1 << bit) == 0 {
                let Some(&b) = input.get(i) else {
                    return Err(corrupt(format!("truncated literal at {i}")));
                };
                out.push(b);
                i += 1;
            } else {
                if i + 3 > input.len() {
                    return Err(corrupt(format!("truncated match token at {i}")));
                }
                let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
                let len = input[i + 2] as usize + MIN_MATCH;
                i += 3;
                if dist == 0 || dist > out.len() {
                    return Err(corrupt(format!(
                        "match distance {dist} outside {} produced bytes",
                        out.len()
                    )));
                }
                if out.len() + len > raw_len {
                    return Err(corrupt(format!(
                        "match of {len} overruns raw length {raw_len} at {}",
                        out.len()
                    )));
                }
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Byte-at-a-time: the match overlaps itself (RLE-style).
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
            bit += 1;
        }
    }
    if i != input.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after output completed",
            input.len() - i
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::bytes as noise;

    fn roundtrip(input: &[u8]) -> Option<Vec<u8>> {
        compress(input).map(|c| {
            assert!(c.len() < input.len(), "profitability is strict");
            let back = decompress(&c, input.len()).unwrap();
            assert_eq!(back, input);
            c
        })
    }

    /// The format and the parse, written the slow obvious way: fresh tables
    /// per call, one token and one compared byte at a time, no profitability
    /// cut. [`compress`] must produce exactly this whenever it is strictly
    /// smaller than the input, and `None` otherwise.
    fn reference_encoding(input: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8];
        let (mut flags_at, mut used) = (0usize, 0u8);
        let mut token = |out: &mut Vec<u8>, is_match: bool| {
            if used == 8 {
                flags_at = out.len();
                out.push(0);
                used = 0;
            }
            out[flags_at] |= u8::from(is_match) << used;
            used += 1;
        };
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; input.len()];
        let (mut pos, mut next_probe, mut misses) = (0usize, 0usize, 0u32);
        while pos < input.len() {
            let (mut best_len, mut best_dist) = (0usize, 0usize);
            let probe = pos == next_probe && pos + MIN_MATCH <= input.len();
            if probe {
                let h = hash4(&input[pos..]);
                let limit = (input.len() - pos).min(MAX_MATCH);
                let (mut candidate, mut steps) = (head[h], 0usize);
                while candidate != usize::MAX && steps < MAX_CHAIN {
                    if pos - candidate > MAX_DISTANCE {
                        break;
                    }
                    let mut l = 0usize;
                    while l < limit && input[candidate + l] == input[pos + l] {
                        l += 1;
                    }
                    if l > best_len {
                        (best_len, best_dist) = (l, pos - candidate);
                        if l == limit {
                            break;
                        }
                    }
                    candidate = prev[candidate];
                    steps += 1;
                }
                prev[pos] = head[h];
                head[h] = pos;
            }
            if best_len >= MIN_MATCH {
                token(&mut out, true);
                out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                out.push((best_len - MIN_MATCH) as u8);
                for p in pos + 1..pos + best_len {
                    if p + MIN_MATCH <= input.len() {
                        let h = hash4(&input[p..]);
                        prev[p] = head[h];
                        head[h] = p;
                    }
                }
                pos += best_len;
                next_probe = pos;
                misses = 0;
            } else {
                if probe {
                    misses += 1;
                    let decay = (misses.saturating_sub(DECAY_AFTER) >> DECAY_SHIFT) as usize;
                    next_probe = pos + 1 + decay.min(MAX_STRIDE - 1);
                }
                token(&mut out, false);
                out.push(input[pos]);
                pos += 1;
            }
        }
        out
    }

    /// `compress` against the reference, plus the round trip.
    fn check(input: &[u8], what: &str) -> Option<Vec<u8>> {
        let reference = reference_encoding(input);
        let expected = (reference.len() < input.len()).then_some(reference);
        let got = compress(input);
        assert!(
            got == expected,
            "{what}: diverged from the reference encoding"
        );
        roundtrip(input)
    }

    /// Database-dump-like rows: a few columns, shared vocabulary, numbers.
    fn rows(seed: u64, len: usize) -> Vec<u8> {
        const CITIES: [&str; 6] = [
            "Hangzhou", "Shenzhen", "Beijing", "Chengdu", "Wuhan", "Xiamen",
        ];
        let mut rng = crate::rng::Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(len + 64);
        let mut id = rng.gen_range(1_000u64..9_000_000);
        while out.len() < len {
            id += rng.gen_range(1u64..9);
            let city = CITIES[rng.gen_range(0..CITIES.len())];
            let amount = rng.gen_range(0u32..1_000_000);
            out.extend_from_slice(
                format!(
                    "{id},{city},2023-0{}-1{},{amount}.00,OK\n",
                    id % 9 + 1,
                    id % 10
                )
                .as_bytes(),
            );
        }
        out.truncate(len);
        out
    }

    #[test]
    fn compresses_repetitive_data() {
        let input: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let c = roundtrip(&input).expect("repetitive data must compress");
        assert!(c.len() < input.len() / 4, "expected >4x on cyclic text");
    }

    #[test]
    fn run_length_extremes() {
        let input = vec![0xAB; 100_000];
        let c = roundtrip(&input).expect("constant data compresses");
        // ceil(100_000 / MAX_MATCH) match tokens of 3 bytes + 1/8 flags.
        assert!(c.len() < 1300);
    }

    #[test]
    fn random_data_stored_raw() {
        let buf = noise(7, 16 * 1024);
        assert!(compress(&buf).is_none(), "random bytes are incompressible");
    }

    #[test]
    fn shapes_match_the_reference_and_roundtrip() {
        for seed in 0..4u64 {
            assert!(check(&noise(seed, 4_600), "noise").is_none());
            assert!(check(&noise(seed, 256 * 1024), "noise, superchunk").is_none());
            let text = check(&rows(seed, 4_600), "rows").expect("row text compresses");
            assert!(text.len() < 4_600 * 2 / 3);
            assert!(check(&rows(seed, 256 * 1024), "rows, superchunk").is_some());
            assert!(check(&vec![0u8; 4_600 + seed as usize], "zeros").is_some());

            // A noisy head long enough to push the stride to its ceiling
            // must not cost the compressible body behind it, and vice versa.
            let noisy_head = [noise(seed, 40_000), rows(seed, 24_000)].concat();
            let c = check(&noisy_head, "noise then rows").expect("the body still compresses");
            let body_alone = compress(&rows(seed, 24_000)).unwrap().len();
            assert!(
                c.len() < 40_000 * 9 / 8 + 64 + body_alone * 21 / 20,
                "body behind a noisy head cost {} bytes, {} alone",
                c.len() - 40_000 * 9 / 8,
                body_alone
            );
            let noisy_tail = [rows(seed, 24_000), noise(seed, 8_000)].concat();
            check(&noisy_tail, "rows then noise").expect("the head still compresses");
            let small = [noise(seed, 1_500), rows(seed, 3_000)].concat();
            check(&small, "chunk-sized noise then rows").expect("still compresses");
        }
        // Around the group and end-of-input edges.
        for len in 0..80usize {
            check(&rows(9, len), "short rows");
            check(&noise(9, len), "short noise");
            check(&vec![7u8; len], "short run");
        }
    }

    #[test]
    fn strictly_smaller_or_none() {
        // Eight literals then one match: 1 + 8 + 1 + 3 = 13 bytes for 13
        // input bytes is not strictly smaller; one more matched byte is.
        let tie = b"abcdefghabcde";
        assert_eq!(reference_encoding(tie).len(), tie.len());
        assert!(check(tie, "tie").is_none());
        assert!(check(b"abcdefghabcdef", "one byte better").is_some());
    }

    #[test]
    fn output_is_independent_of_scratch_history() {
        let inputs = [
            rows(1, 9_000),
            [noise(2, 3_000), rows(2, 5_000)].concat(),
            vec![0x5A; 70_000],
            noise(3, 2_000),
        ];
        let fresh: Vec<_> = std::thread::spawn({
            let inputs = inputs.clone();
            move || inputs.iter().map(|i| compress(i)).collect()
        })
        .join()
        .unwrap();
        assert!(fresh[..3].iter().all(Option::is_some));

        let used: Vec<_> = std::thread::spawn({
            let inputs = inputs.clone();
            move || {
                // 10 000 other inputs first, sharing 4-grams with the probes.
                let pool = [rows(1, 40_000), noise(2, 40_000)].concat();
                for k in 0..10_000usize {
                    let at = (k * 7) % (pool.len() - 700);
                    std::hint::black_box(compress(&pool[at..at + 40 + k % 600]));
                }
                let warm: Vec<_> = inputs.iter().map(|i| compress(i)).collect();
                // Park the stamp counter just short of the end of its space:
                // the first call still fits, the following ones wrap and wipe.
                SCRATCH.with(|s| s.borrow_mut().next_base = u32::MAX - 80_000);
                let wrapped: Vec<_> = inputs.iter().map(|i| compress(i)).collect();
                SCRATCH.with(|s| assert!(s.borrow().next_base < 1 << 20, "wrap not reached"));
                (warm, wrapped)
            }
        })
        .join()
        .map(|(warm, wrapped)| vec![warm, wrapped])
        .unwrap();
        for (history, got) in ["warm", "wrapped"].iter().zip(&used) {
            assert!(got == &fresh, "{history} scratch changed the output");
        }
    }

    #[test]
    fn tiny_inputs_stored_raw() {
        assert!(compress(&[]).is_none());
        assert!(compress(b"abc").is_none());
        assert!(compress(b"aaaa").is_none());
    }

    #[test]
    fn deterministic() {
        let input: Vec<u8> = (0..4096u32).flat_map(|i| (i % 251).to_le_bytes()).collect();
        assert_eq!(compress(&input), compress(&input));
    }

    #[test]
    fn structured_inputs_roundtrip() {
        // A grab-bag of shapes: short runs, interleaved patterns, mostly
        // unique with a repeated tail, overlap-copy cases (dist < len).
        let mut cases: Vec<Vec<u8>> = vec![
            b"abcabcabcabcabcabcabcabcabcabc".to_vec(),
            [b"x".repeat(3), b"unique-middle".to_vec(), b"x".repeat(300)].concat(),
            (0..255u8).collect::<Vec<u8>>().repeat(40),
        ];
        let mut semi = Vec::new();
        for i in 0..2000u64 {
            semi.extend_from_slice(&(i / 7).to_le_bytes());
        }
        cases.push(semi);
        for input in cases {
            if compress(&input).is_some() {
                roundtrip(&input);
            }
        }
    }

    #[test]
    fn decompress_rejects_bad_distance() {
        // flags=0b10 -> literal 'a', then a match reaching back 9 bytes when
        // only 1 has been produced.
        let bad = [0b0000_0010u8, b'a', 9, 0, 0];
        let err = decompress(&bad, 10).unwrap_err();
        assert!(matches!(err, SlimError::Corrupt { .. }), "{err}");
        // Distance 0 is reserved.
        let zero = [0b0000_0001u8, 0, 0, 0];
        assert!(decompress(&zero, 4).is_err());
    }

    #[test]
    fn decompress_rejects_length_overrun() {
        let input = vec![0xCD; 1000];
        let c = compress(&input).unwrap();
        // Claiming a shorter raw length than the stream produces must fail
        // (either by overrun or by trailing input).
        assert!(decompress(&c, 999).is_err());
        // Claiming longer must fail with input exhausted.
        assert!(decompress(&c, 1001).is_err());
    }

    #[test]
    fn decompress_rejects_truncation_and_trailing() {
        let input = vec![0x11; 512];
        let c = compress(&input).unwrap();
        assert!(decompress(&c[..c.len() - 1], input.len()).is_err());
        let mut extended = c.clone();
        extended.push(0);
        assert!(decompress(&extended, input.len()).is_err());
    }

    #[test]
    fn bit_flip_sweep_never_panics() {
        let input: Vec<u8> = b"payload payload payload 1234567890 "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let c = compress(&input).unwrap();
        for i in 0..c.len() {
            for bit in 0..8 {
                let mut m = c.clone();
                m[i] ^= 1 << bit;
                // Either decodes to wrong bytes of the right length or
                // errors; must never panic.
                let _ = decompress(&m, input.len());
            }
        }
    }
}
