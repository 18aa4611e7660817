//! Property tests (seeded generator loops, `slim_types::rng::cases`) of the
//! core invariant:
//! `restore(backup(x)) == x`, for arbitrary content, mutation patterns,
//! chunker choices, optimization toggles and cache budgets — and the
//! skip-chunking equivalence guarantee of Fig 5(b).

use std::sync::Arc;

use slim_oss::Oss;
use slim_types::rng::{cases, Rng};
use slim_types::{FileId, SlimConfig, VersionId};
use slimstore_repro::chunking::{ChunkSpec, Chunker, FastCdcChunker, RabinChunker};
use slimstore_repro::index::SimilarFileIndex;
use slimstore_repro::lnode::backup::BackupPipeline;
use slimstore_repro::lnode::restore::{RestoreEngine, RestoreOptions};
use slimstore_repro::lnode::StorageLayer;

/// A compact description of a multi-version content history: base content
/// plus per-version edit scripts, all drawn from the case's stream.
#[derive(Debug, Clone)]
struct History {
    base: Vec<u8>,
    edits: Vec<Vec<Edit>>,
}

#[derive(Debug, Clone)]
enum Edit {
    Overwrite { at: usize, bytes: Vec<u8> },
    Insert { at: usize, bytes: Vec<u8> },
    Delete { at: usize, len: usize },
}

fn apply(data: &mut Vec<u8>, edit: &Edit) {
    if data.is_empty() {
        if let Edit::Insert { bytes, .. } = edit {
            data.extend_from_slice(bytes);
        }
        return;
    }
    match edit {
        Edit::Overwrite { at, bytes } => {
            let at = at % data.len();
            let end = (at + bytes.len()).min(data.len());
            data[at..end].copy_from_slice(&bytes[..end - at]);
        }
        Edit::Insert { at, bytes } => {
            let at = at % (data.len() + 1);
            data.splice(at..at, bytes.iter().copied());
        }
        Edit::Delete { at, len } => {
            let at = at % data.len();
            let end = (at + len).min(data.len());
            data.drain(at..end);
        }
    }
}

fn gen_edit(rng: &mut Rng) -> Edit {
    let at = rng.next_u64() as usize;
    match rng.gen_range(0..3) {
        0 => Edit::Overwrite {
            at,
            bytes: rng.gen_bytes(1..400),
        },
        1 => Edit::Insert {
            at,
            bytes: rng.gen_bytes(1..400),
        },
        _ => Edit::Delete {
            at,
            len: rng.gen_range(1..400),
        },
    }
}

fn gen_history(rng: &mut Rng) -> History {
    let base = rng.gen_bytes(512..8192);
    let edits = (0..rng.gen_range(1..4))
        .map(|_| (0..rng.gen_range(0..6)).map(|_| gen_edit(rng)).collect())
        .collect();
    History { base, edits }
}

fn versions_of(history: &History) -> Vec<Vec<u8>> {
    let mut out = vec![history.base.clone()];
    let mut cur = history.base.clone();
    for script in &history.edits {
        for edit in script {
            apply(&mut cur, edit);
        }
        out.push(cur.clone());
    }
    out
}

fn run_roundtrip(
    history: &History,
    chunker: &dyn Chunker,
    cfg: &SlimConfig,
    restore_opts: &RestoreOptions,
) {
    let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
    let similar = SimilarFileIndex::new();
    let pipeline = BackupPipeline::new(&storage, &similar, chunker, cfg);
    let file = FileId::new("prop/file");
    let versions = versions_of(history);
    for (v, data) in versions.iter().enumerate() {
        pipeline
            .backup_file(&file, VersionId(v as u64), data)
            .unwrap();
    }
    let engine = RestoreEngine::new(&storage, None);
    for (v, expected) in versions.iter().enumerate() {
        let (restored, _) = engine
            .restore_file(&file, VersionId(v as u64), restore_opts)
            .unwrap();
        assert_eq!(&restored, expected, "version {v} mismatch");
    }
}

#[test]
fn fastcdc_roundtrip() {
    cases(24, 0x5EED_0001, |rng| {
        let history = gen_history(rng);
        let cfg = SlimConfig::small_for_tests();
        let chunker = FastCdcChunker::new(ChunkSpec::from_config(&cfg));
        run_roundtrip(&history, &chunker, &cfg, &RestoreOptions::from_config(&cfg));
    });
}

#[test]
fn rabin_roundtrip() {
    cases(24, 0x5EED_0002, |rng| {
        let history = gen_history(rng);
        let cfg = SlimConfig::small_for_tests();
        let chunker = RabinChunker::new(ChunkSpec::from_config(&cfg));
        run_roundtrip(&history, &chunker, &cfg, &RestoreOptions::from_config(&cfg));
    });
}

#[test]
fn roundtrip_without_optimizations() {
    cases(24, 0x5EED_0003, |rng| {
        let history = gen_history(rng);
        let cfg = SlimConfig::small_for_tests()
            .with_skip_chunking(false)
            .with_chunk_merging(false);
        let chunker = FastCdcChunker::new(ChunkSpec::from_config(&cfg));
        run_roundtrip(&history, &chunker, &cfg, &RestoreOptions::from_config(&cfg));
    });
}

#[test]
fn roundtrip_with_starved_restore_cache() {
    cases(24, 0x5EED_0004, |rng| {
        let history = gen_history(rng);
        let cfg = SlimConfig::small_for_tests();
        let chunker = FastCdcChunker::new(ChunkSpec::from_config(&cfg));
        let opts = RestoreOptions {
            cache_mem: 512,
            cache_disk: 1024,
            law_window: 3,
            prefetch_threads: 1,
        };
        run_roundtrip(&history, &chunker, &cfg, &opts);
    });
}

/// Skip chunking must not change the logical chunk stream (Fig 5(b)).
#[test]
fn skip_chunking_is_lossless() {
    cases(24, 0x5EED_0005, |rng| {
        let history = gen_history(rng);
        let versions = versions_of(&history);
        let mut streams = Vec::new();
        for skip in [false, true] {
            let cfg = SlimConfig::small_for_tests()
                .with_skip_chunking(skip)
                .with_chunk_merging(false);
            let chunker = FastCdcChunker::new(ChunkSpec::from_config(&cfg));
            let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
            let similar = SimilarFileIndex::new();
            let pipeline = BackupPipeline::new(&storage, &similar, &chunker, &cfg);
            let file = FileId::new("prop/skip");
            for (v, data) in versions.iter().enumerate() {
                pipeline
                    .backup_file(&file, VersionId(v as u64), data)
                    .unwrap();
            }
            let last = VersionId(versions.len() as u64 - 1);
            let recipe = storage.get_recipe(&file, last).unwrap();
            let stream: Vec<_> = recipe.records().map(|r| (r.fp, r.size)).collect();
            streams.push(stream);
        }
        assert_eq!(
            &streams[0], &streams[1],
            "skip chunking altered the chunk stream"
        );
    });
}
