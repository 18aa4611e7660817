//! System tests of the per-chunk container compression plane.
//!
//! The plane's contract has three legs, each tested here end to end:
//!
//! 1. **Byte identity** — compression-on restores are byte-identical to the
//!    input, across G-node cycles, mixed on/off histories (in-place knob
//!    flips over one bucket), hand-downgraded v1 container metas, and the
//!    pipelined backup plane.
//! 2. **Dedup invariance** — every deduplication statistic (logical bytes,
//!    chunk/duplicate/skip counts, container ids, containers read on
//!    restore) is exactly unchanged under the knob; only stored bytes
//!    shrink. Container sealing boundaries are accounted in raw bytes, so
//!    the two planes must allocate identical container id sequences.
//! 3. **Corruption honesty** — a bit-flipped container object (data or
//!    meta), a poisoned meta that passes its CRC, or garbage in a
//!    compressed payload's stored bytes must surface as a `Corrupt`-class
//!    error (or heal through the redundancy plane) — never a panic, never
//!    silently wrong bytes.

use std::sync::Arc;

use bytes::Bytes;
use slim_oss::rocks::RocksConfig;
use slim_oss::{ObjectStore, Oss};
use slim_types::{codec, crc, layout, ContainerMeta, FileId, SlimConfig, VersionId};
use slimstore::{SlimStore, SlimStoreBuilder};

/// Deterministic *compressible* data: seeded sentences over a small
/// vocabulary. The stock workload generator fills blocks with pure random
/// bytes (deliberately incompressible), so this suite brings its own
/// corpus with realistic redundancy.
fn text(seed: u64, len: usize) -> Vec<u8> {
    const WORDS: [&str; 12] = [
        "container",
        "chunk",
        "recipe",
        "fingerprint",
        "backup",
        "restore",
        "segment",
        "version",
        "index",
        "dedup",
        "slimstore",
        "object",
    ];
    let mut rng = slim_types::rng::Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
        out.push(b' ');
        if rng.gen_range(0..40) == 0 {
            out.push(b'\n');
        }
    }
    out.truncate(len);
    out
}

/// Mutate a seeded span in place — the between-version edit that gives the
/// dedup plane something real to do.
fn mutate(buf: &mut [u8], round: usize) {
    let at = (round * 977) % (buf.len() - 600);
    let patch = text(0xED17 + round as u64, 600);
    buf[at..at + 600].copy_from_slice(&patch);
}

fn config(compression: bool) -> SlimConfig {
    SlimConfig::small_for_tests().with_compression(compression)
}

fn store_over(oss: &Oss, cfg: SlimConfig) -> SlimStore {
    SlimStoreBuilder::in_memory()
        .with_object_store(Arc::new(oss.clone()))
        .with_config(cfg)
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap()
}

type History = Vec<(VersionId, Vec<(FileId, Vec<u8>)>)>;

/// Back up `versions` mutated snapshots of two compressible files.
fn backup_history(store: &SlimStore, versions: usize) -> History {
    let mut files = vec![
        (FileId::new("a.txt"), text(1, 30_000)),
        (FileId::new("b.log"), text(2, 18_000)),
    ];
    let mut history = History::new();
    for round in 0..versions {
        let report = store.backup_version(files.clone()).unwrap();
        history.push((report.version, files.clone()));
        for (i, (_, buf)) in files.iter_mut().enumerate() {
            mutate(buf, round * 3 + i);
        }
    }
    history
}

fn verify_all(store: &SlimStore, history: &History, ctx: &str) {
    for (version, files) in history {
        store
            .verify_version(*version, files)
            .unwrap_or_else(|e| panic!("{ctx}: version {version:?} diverged: {e}"));
    }
}

/// Leg 1 + acceptance: compression-on restores byte-identically (through
/// G-node cycles), stored bytes drop measurably versus the same history
/// with compression off, and the dedup ratio is untouched.
#[test]
fn compressed_repo_restores_byte_identically_and_stores_less() {
    let oss_on = Oss::in_memory();
    let store_on = store_over(&oss_on, config(true));
    let history = backup_history(&store_on, 4);
    verify_all(&store_on, &history, "compression on");
    let last = history.last().unwrap().0;
    store_on.run_gnode_cycle(last).unwrap();
    verify_all(&store_on, &history, "compression on, after cycle");

    let oss_off = Oss::in_memory();
    let store_off = store_over(&oss_off, config(false));
    let history_off = backup_history(&store_off, 4);
    verify_all(&store_off, &history_off, "compression off");

    let on = store_on.space_report().unwrap();
    let off = store_off.space_report().unwrap();
    assert_eq!(
        on.container_logical_bytes, off.container_logical_bytes,
        "live raw bytes are a dedup statistic and must not move"
    );
    assert!(
        on.container_stored_payload_bytes < on.container_logical_bytes,
        "stored {} must be below logical {}",
        on.container_stored_payload_bytes,
        on.container_logical_bytes
    );
    assert!(on.compression_ratio() < 0.9, "{}", on.compression_ratio());
    assert_eq!(
        off.container_stored_payload_bytes, off.container_logical_bytes,
        "knob off stores raw"
    );
}

/// Leg 2: every dedup statistic — and the container id sequence itself —
/// is exactly unchanged under the knob. Only the compression counters and
/// stored byte totals differ.
#[test]
fn dedup_statistics_and_container_boundaries_invariant_under_knob() {
    let run = |compression: bool| {
        let oss = Oss::in_memory();
        let store = store_over(&oss, config(compression));
        let mut reports = Vec::new();
        let mut files = vec![
            (FileId::new("a.txt"), text(1, 30_000)),
            (FileId::new("b.log"), text(2, 18_000)),
        ];
        for round in 0..4 {
            reports.push(store.backup_version(files.clone()).unwrap());
            for (i, (_, buf)) in files.iter_mut().enumerate() {
                mutate(buf, round * 3 + i);
            }
        }
        let containers = store.storage().list_containers();
        let restore_stats: Vec<_> = reports
            .iter()
            .map(|r| {
                let (_, stats) = store
                    .restore_file(&FileId::new("a.txt"), r.version)
                    .unwrap();
                (stats.containers_read, stats.restored_bytes)
            })
            .collect();
        (reports, containers, restore_stats)
    };

    let (on, on_containers, on_restores) = run(true);
    let (off, off_containers, off_restores) = run(false);

    assert_eq!(
        on_containers, off_containers,
        "raw-byte capacity accounting must seal identical container boundaries"
    );
    assert_eq!(
        on_restores, off_restores,
        "containers read per restore is a dedup statistic"
    );
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a.stats.logical_bytes, b.stats.logical_bytes);
        assert_eq!(
            a.stats.stored_bytes, b.stats.stored_bytes,
            "BackupStats::stored_bytes stays in raw bytes (it feeds dedup_ratio)"
        );
        assert_eq!(a.stats.chunks, b.stats.chunks);
        assert_eq!(a.stats.duplicates, b.stats.duplicates);
        assert_eq!(a.stats.skip_hits, b.stats.skip_hits);
        assert_eq!(a.stats.skip_misses, b.stats.skip_misses);
        assert_eq!(a.stats.super_hits, b.stats.super_hits);
        assert_eq!(a.stats.super_misses, b.stats.super_misses);
        assert_eq!(a.stats.superchunks_created, b.stats.superchunks_created);
        assert_eq!(a.stats.chunks_merged, b.stats.chunks_merged);
        assert_eq!(a.stats.dedup_ratio(), b.stats.dedup_ratio());
        // The compression plane itself is observable only where it should be.
        assert!(a.stats.compress_chunks > 0);
        assert!(a.stats.compress_stored_bytes < a.stats.compress_raw_bytes);
        assert_eq!(b.stats.compress_chunks, 0, "knob off records nothing");
    }
}

/// Leg 1, mixed history: a repo written with compression off, reopened
/// with it on (and vice versa), restores every version byte-identically —
/// including after G-node cycles rewrite (and so recompress) containers.
#[test]
fn knob_flip_over_existing_bucket_upgrades_in_place() {
    let oss = Oss::in_memory();
    let mut history = {
        let store = store_over(&oss, config(false));
        backup_history(&store, 2)
    };
    // Reopen compressed; old uncompressed containers remain readable and
    // new versions dedup against them.
    let store = store_over(&oss, config(true));
    verify_all(&store, &history, "uncompressed history, compressed reopen");
    let mut files = history.last().unwrap().1.clone();
    for round in 0..2 {
        for (i, (_, buf)) in files.iter_mut().enumerate() {
            mutate(buf, 90 + round * 3 + i);
        }
        let report = store.backup_version(files.clone()).unwrap();
        assert!(
            report.stats.duplicates > 0,
            "new compressed versions dedup against the uncompressed history"
        );
        history.push((report.version, files.clone()));
    }
    let last = history.last().unwrap().0;
    store.run_gnode_cycle(last).unwrap();
    verify_all(&store, &history, "mixed bucket after cycle");
    assert!(
        store.space_report().unwrap().compression_ratio() < 1.0,
        "the compressed generation must be visible in space accounting"
    );

    // And back: a compression-off reopen of the now-mixed bucket.
    let store = store_over(&oss, config(false));
    verify_all(&store, &history, "mixed bucket, compression-off reopen");
}

/// Leg 1, wire compatibility: a container meta hand-downgraded to the v1
/// format (no raw_len on the wire) still decodes and restores.
#[test]
fn v1_wire_metas_remain_readable_end_to_end() {
    let oss = Oss::in_memory();
    let store = store_over(&oss, config(false));
    let history = backup_history(&store, 1);

    // Downgrade every meta object to v1 on the raw bucket. The store wrote
    // them uncompressed, so len == raw_len and the downgrade is lossless.
    let meta_keys: Vec<String> = oss
        .list(layout::CONTAINER_PREFIX)
        .into_iter()
        .filter(|k| k.ends_with("/meta"))
        .collect();
    assert!(!meta_keys.is_empty());
    for key in &meta_keys {
        let meta =
            ContainerMeta::decode(&crc::unseal(&oss.get(key).unwrap(), "container meta").unwrap())
                .unwrap();
        let mut w = codec::Writer::with_header(b"SLCM", 1);
        w.u64(meta.id.0);
        w.u32(meta.data_len);
        w.u32(meta.entries.len() as u32);
        for e in &meta.entries {
            assert_eq!(e.len, e.raw_len, "uncompressed container");
            w.fingerprint(&e.fp);
            w.u32(e.offset);
            w.u32(e.len);
            w.u8(u8::from(e.deleted));
        }
        oss.put(key, crc::seal(&w.freeze())).unwrap();
    }

    // Restores decode the v1 wire; a compressed reopen + cycle upgrades the
    // metas to v2 as containers are rewritten, and everything still restores.
    verify_all(&store, &history, "v1 metas");
    let store = store_over(&oss, config(true));
    verify_all(&store, &history, "v1 metas, compressed reopen");
    store.run_gnode_cycle(history.last().unwrap().0).unwrap();
    verify_all(&store, &history, "v1 metas after cycle");
}

/// Leg 1, pipelined plane: with compression on, any pipeline thread budget
/// leaves the bucket byte-identical to the sequential path — compression
/// happens at the seal, on the uploader stage, chunk by chunk and
/// independent of the seal's fan-out, so both engines ship identical bytes.
#[test]
fn pipelined_backup_is_bucket_identical_with_compression_on() {
    let bucket = |threads: usize| -> Vec<(String, Vec<u8>)> {
        let oss = Oss::in_memory();
        let store = store_over(&oss, config(true).with_backup_pipeline_threads(threads));
        let history = backup_history(&store, 3);
        verify_all(&store, &history, &format!("threads={threads}"));
        let mut keys = oss.list("");
        keys.sort();
        keys.into_iter()
            .map(|k| {
                let v = oss.get(&k).unwrap().to_vec();
                (k, v)
            })
            .collect()
    };
    let sequential = bucket(0);
    assert!(!sequential.is_empty());
    for threads in [2, 4] {
        let pipelined = bucket(threads);
        assert_eq!(
            pipelined.len(),
            sequential.len(),
            "threads={threads}: key sets differ"
        );
        for ((gk, gv), (wk, wv)) in pipelined.iter().zip(&sequential) {
            assert_eq!(gk, wk, "threads={threads}: key order");
            assert_eq!(gv, wv, "threads={threads}: object {gk} diverged");
        }
    }
}

/// Leg 3: a seeded bit-flip sweep over every container object of a
/// compressed repo (redundancy off, so nothing heals behind the test's
/// back). Every read must either return the original bytes or a clean
/// error — zero panics, zero silently-wrong restores.
#[test]
fn bit_flip_sweep_yields_corrupt_never_panics() {
    let oss = Oss::in_memory();
    let store = store_over(&oss, config(true).with_redundancy(false));
    let history = backup_history(&store, 2);

    let victims = oss.list(layout::CONTAINER_PREFIX);
    assert!(!victims.is_empty());
    for (i, key) in victims.iter().enumerate() {
        let original = oss.get(key).unwrap();
        // Three seeded flip positions per object: head, interior, trailer.
        for (j, pos) in [0usize, (i * 7919 + 13) % original.len(), original.len() - 1]
            .into_iter()
            .enumerate()
        {
            let mut buf = original.to_vec();
            buf[pos] ^= 1 << ((i + j) % 8);
            oss.put(key, Bytes::from(buf)).unwrap();
            for (version, files) in &history {
                for (file, expected) in files {
                    match store.restore_file(file, *version) {
                        Ok((bytes, _)) => {
                            assert_eq!(&bytes, expected, "{key} flip@{pos}: silently wrong restore")
                        }
                        Err(e) => assert!(
                            !e.is_retryable(),
                            "{key} flip@{pos}: corruption must be permanent, got {e}"
                        ),
                    }
                }
            }
            oss.put(key, original.clone()).unwrap();
        }
    }
    // The bucket is whole again: everything restores.
    verify_all(&store, &history, "after sweep");
}

/// Leg 3, the decode-boundary bugfix: a meta whose CRC is intact but whose
/// entries are structurally poisoned (out-of-bounds span, stored > raw, or
/// garbage where a compressed payload should be) must error — the
/// unchecked-slice panics this PR removes.
#[test]
fn poisoned_meta_and_payload_surface_as_corrupt() {
    let oss = Oss::in_memory();
    let store = store_over(&oss, config(true).with_redundancy(false));
    let history = backup_history(&store, 1);
    let meta_key = oss
        .list(layout::CONTAINER_PREFIX)
        .into_iter()
        .find(|k| k.ends_with("/meta"))
        .unwrap();
    let data_key = meta_key.replace("/meta", "/data");
    let good_meta = oss.get(&meta_key).unwrap();
    let good_data = oss.get(&data_key).unwrap();
    let meta = ContainerMeta::decode(&crc::unseal(&good_meta, "container meta").unwrap()).unwrap();

    let restore_all = |ctx: &str| {
        for (version, files) in &history {
            for (file, expected) in files {
                match store.restore_file(file, *version) {
                    Ok((bytes, _)) => {
                        assert_eq!(&bytes, expected, "{ctx}: silently wrong restore")
                    }
                    Err(e) => assert!(!e.is_retryable(), "{ctx}: got retryable {e}"),
                }
            }
        }
    };

    // (a) Entry span reaching past the data object, behind a valid CRC.
    let mut poisoned = meta.clone();
    poisoned.entries[0].offset = poisoned.data_len;
    poisoned.entries[0].len = u32::MAX - poisoned.data_len;
    poisoned.entries[0].raw_len = u32::MAX;
    oss.put(&meta_key, crc::seal(&poisoned.encode())).unwrap();
    restore_all("out-of-bounds entry");

    // (b) Stored length exceeding raw length (impossible for the builder).
    let mut poisoned = meta.clone();
    poisoned.entries[0].raw_len = 0;
    oss.put(&meta_key, crc::seal(&poisoned.encode())).unwrap();
    restore_all("len > raw_len");
    oss.put(&meta_key, good_meta.clone()).unwrap();

    // (c) A compressed entry whose stored bytes are garbage: overwrite its
    // span with 0xFF (an LZSS stream that must fail strict decode) and
    // reseal the data object so only the chunk-level check can catch it.
    let compressed = meta.entries.iter().find(|e| e.is_compressed());
    if let Some(entry) = compressed {
        let mut data = crc::unseal(&good_data, "container data").unwrap().to_vec();
        for b in &mut data[entry.offset as usize..(entry.offset + entry.len) as usize] {
            *b = 0xFF;
        }
        oss.put(&data_key, crc::seal(&data)).unwrap();
        restore_all("garbage compressed payload");
        oss.put(&data_key, good_data.clone()).unwrap();
    }

    verify_all(&store, &history, "after poisoning");
}

/// The redundancy plane protects *stored* bytes: a damaged compressed
/// container heals through `repair()` and restores byte-identically.
#[test]
fn repair_heals_damaged_compressed_containers() {
    let oss = Oss::in_memory();
    let store = store_over(&oss, config(true));
    let history = backup_history(&store, 3);
    let last = history.last().unwrap().0;
    store.run_gnode_cycle(last).unwrap();

    let victim = oss
        .list(layout::CONTAINER_PREFIX)
        .into_iter()
        .find(|k| k.ends_with("/data"))
        .unwrap();
    let mut buf = oss.get(&victim).unwrap().to_vec();
    let mid = buf.len() / 2;
    buf[mid] ^= 0x10;
    oss.put(&victim, Bytes::from(buf)).unwrap();

    let (_, report) = store.repair().unwrap();
    assert_eq!(report.containers_unrepairable, 0, "{report:?}");
    verify_all(&store, &history, "after repair");
    let integrity = store.verify_checksums().unwrap();
    assert_eq!(integrity.containers_quarantined, 0);
}
