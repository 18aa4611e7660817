//! Per-layer kernels: each public primitive timed by the benchmark's own
//! clock, over a sample of the workload's v1 bytes, its real chunks, or the
//! real objects its store holds — so `types.lzss.*` on random bytes and on
//! row text are different numbers, as they are inside the system.
//!
//! Every kernel reports a median over several repetitions (or a rate over a
//! large fixed amount of work) and passes inputs and results through
//! `black_box` so the optimiser cannot elide the measured call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use slim_chunking::{boundaries, fingerprint, ChunkSpec, Chunker, FastCdcChunker};
use slim_index::{DedupCache, GlobalIndex, SimilarFileIndex};
use slim_oss::rocks::RocksConfig;
use slim_oss::{
    HedgePolicy, HedgedStore, NamespacedStore, ObjectStore, Oss, RedundantStore, RetryPolicy,
    RetryingStore,
};
use slim_telemetry::Registry;
use slim_types::{
    compress, crc, ChunkRecord, ContainerBuilder, ContainerId, ContainerMeta, FileId, Fingerprint,
    Recipe, SegmentRecipe, SlimConfig, VersionId,
};
use slimstore::SlimStore;

use crate::gen::{mix64, Rng};
use crate::metrics::{median, ratio, MetricSet, MIB};

/// Median seconds per call of `f` over `reps` calls.
pub fn time_per_op(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Seconds of one call of `f`.
fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Mean seconds per item of `batch(items)`, as a median over `reps` batches:
/// for operations too short to time one at a time.
fn time_per_item(reps: usize, items: usize, mut batch: impl FnMut()) -> f64 {
    time_per_op(reps, &mut batch) / items.max(1) as f64
}

fn mbps(bytes: usize, secs: f64) -> f64 {
    ratio(bytes as f64 / MIB, secs)
}

fn fake_fp(i: u64) -> Fingerprint {
    let mut raw = [0u8; 20];
    raw[..8].copy_from_slice(&mix64(i).to_le_bytes());
    raw[8..16].copy_from_slice(&mix64(i ^ 0xF00D).to_le_bytes());
    raw[16..].copy_from_slice(&(i as u32).to_le_bytes());
    Fingerprint(raw)
}

/// Run every kernel and record its metric.
pub fn run(
    set: &mut MetricSet,
    sample: &[u8],
    store: &SlimStore,
    latest: VersionId,
    scale_div: usize,
) -> Result<(), String> {
    let cfg = SlimConfig::default();
    if sample.is_empty() {
        return Err("no v1 sample was captured for the layer kernels".into());
    }
    chunking_and_types(set, sample, &cfg);
    stored_objects(set, store, latest)?;
    index(set, sample, &cfg, scale_div).map_err(|e| format!("index kernels: {e}"))?;
    oss(set).map_err(|e| format!("oss kernels: {e}"))?;
    telemetry(set, store);
    Ok(())
}

fn chunking_and_types(set: &mut MetricSet, sample: &[u8], cfg: &SlimConfig) {
    let chunker = FastCdcChunker::new(ChunkSpec::from_config(cfg));
    let (cuts, secs) = time_once(|| boundaries(&chunker, black_box(sample)).collect::<Vec<_>>());
    set.set("chunking.fastcdc.scan_mbps", mbps(sample.len(), secs));

    // The skip-chunking probe, asked at true cut points (where it answers yes).
    let secs = time_per_item(5, cuts.len(), || {
        for &(start, end) in &cuts {
            black_box(chunker.is_boundary(sample, start, end));
        }
    });
    set.set("chunking.fastcdc.is_boundary_ns", secs * 1e9);

    let (fps, secs) = time_once(|| {
        cuts.iter()
            .map(|&(s, e)| fingerprint(black_box(&sample[s..e])))
            .collect::<Vec<_>>()
    });
    set.set("chunking.sha1_mbps", mbps(sample.len(), secs));

    let secs: f64 = sample
        .chunks(cfg.container_capacity)
        .map(|block| time_once(|| black_box(crc::crc32(black_box(block)))).1)
        .sum();
    set.set("types.crc32_mbps", mbps(sample.len(), secs));

    // LZSS per chunk, as the container builder applies it. A quarter of the
    // sample keeps the slowest kernel within a second.
    let quarter = &cuts[..cuts.len().div_ceil(4)];
    let raw: usize = quarter.iter().map(|&(s, e)| e - s).sum();
    let (packed, secs) = time_once(|| {
        quarter
            .iter()
            .map(|&(s, e)| compress::compress(black_box(&sample[s..e])))
            .collect::<Vec<_>>()
    });
    set.set("types.lzss.compress_mbps", mbps(raw, secs));
    let stored: usize = quarter
        .iter()
        .zip(&packed)
        .map(|(&(s, e), p)| p.as_ref().map_or(e - s, Vec::len))
        .sum();
    set.set(
        "types.lzss.stored_per_raw",
        ratio(stored as f64, raw as f64),
    );
    let mut unpacked = 0usize;
    let ((), secs) = time_once(|| {
        for (&(s, e), p) in quarter.iter().zip(&packed) {
            if let Some(p) = p {
                let out =
                    compress::decompress(black_box(p), e - s).expect("own output decompresses");
                unpacked += black_box(out).len();
            }
        }
    });
    // 0 when nothing compressed: there is then no decompression to price.
    set.set("types.lzss.decompress_mbps", mbps(unpacked, secs));

    // Container build: push real chunks into 4 MiB builders and seal them.
    let half = &cuts[..cuts.len().div_ceil(2)];
    let built_bytes: usize = half.iter().map(|&(s, e)| e - s).sum();
    let ((), secs) = time_once(|| {
        let mut id = 0u64;
        let mut builder = ContainerBuilder::new(ContainerId(id), cfg.container_capacity)
            .with_compression(cfg.compression);
        for (&(s, e), fp) in half.iter().zip(&fps) {
            if builder.would_overflow(e - s) {
                id += 1;
                let full = std::mem::replace(
                    &mut builder,
                    ContainerBuilder::new(ContainerId(id), cfg.container_capacity)
                        .with_compression(cfg.compression),
                );
                black_box(full.seal());
            }
            builder.push(*fp, &sample[s..e]);
        }
        black_box(builder.seal());
    });
    set.set("types.container.build_mbps", mbps(built_bytes, secs));
}

/// Decode costs of the objects the workload's store really holds.
fn stored_objects(set: &mut MetricSet, store: &SlimStore, latest: VersionId) -> Result<(), String> {
    let storage = store.storage();
    let ids = storage.list_containers();
    let metas: Vec<Bytes> = ids
        .iter()
        .take(32)
        .map(|id| storage.get_container_meta(*id).map(|m| m.encode()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading container metas: {e}"))?;
    if metas.is_empty() {
        return Err("the store holds no container to decode".into());
    }
    let secs = time_per_item(9, metas.len(), || {
        for m in &metas {
            black_box(ContainerMeta::decode(black_box(m)).expect("a stored meta decodes"));
        }
    });
    set.set("types.container_meta.decode_us", secs * 1e6);

    let files: Vec<FileId> = store
        .files_of(latest)
        .map_err(|e| format!("listing files: {e}"))?;
    let recipes: Vec<Bytes> = files
        .iter()
        .take(8)
        .map(|f| storage.get_recipe(f, latest).map(|r| r.encode().0))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading recipes: {e}"))?;
    let secs = time_per_item(9, recipes.len(), || {
        for r in &recipes {
            black_box(Recipe::decode(black_box(r)).expect("a stored recipe decodes"));
        }
    });
    set.set("types.recipe.decode_us", secs * 1e6);
    Ok(())
}

fn index(
    set: &mut MetricSet,
    sample: &[u8],
    cfg: &SlimConfig,
    scale_div: usize,
) -> slim_types::Result<()> {
    // Dedup cache: segments of the sample's real chunk sizes, every fingerprint looked up.
    let chunker = FastCdcChunker::new(ChunkSpec::from_config(cfg));
    let records: Vec<ChunkRecord> = boundaries(&chunker, sample)
        .enumerate()
        .map(|(i, (s, e))| {
            ChunkRecord::new(
                fake_fp(i as u64),
                ContainerId(i as u64 / 1024),
                (e - s) as u32,
                1,
            )
        })
        .collect();
    let mut cache = DedupCache::new(records.len() / cfg.segment_chunks + 1);
    for (i, segment) in records.chunks(cfg.segment_chunks).enumerate() {
        cache.insert_segment(SegmentRecipe::new(segment.to_vec()), i as u32);
    }
    let secs = time_per_item(5, records.len(), || {
        for r in &records {
            black_box(cache.lookup(black_box(&r.fp)));
        }
    });
    set.set("index.dedup_cache.lookup_ns", secs * 1e9);

    // Similar-file detection by representative vote (the path a new file name takes).
    let similar = SimilarFileIndex::new();
    let per_file = cfg.similar_index_samples as u64;
    for f in 0..256u64 {
        let samples = (0..per_file).map(|i| fake_fp(f * per_file + i)).collect();
        similar.register(FileId::new(format!("known/{f:04}")), VersionId(0), samples);
    }
    let probes: Vec<Vec<Fingerprint>> = (0..256u64)
        .map(|f| (0..per_file).map(|i| fake_fp(f * per_file + i)).collect())
        .collect();
    let unseen = FileId::new("unseen/file");
    let secs = time_per_item(9, probes.len(), || {
        for p in &probes {
            black_box(similar.detect(&unseen, black_box(p)));
        }
    });
    set.set("index.similar.detect_us", secs * 1e6);

    // Global index on an instant store: insert, flush, point reads, bloom-negative misses.
    let n = (200_000 / scale_div.max(1)).max(2_000) as u64;
    let global =
        GlobalIndex::open_with(Arc::new(Oss::in_memory()), RocksConfig::default(), 1 << 20)?;
    let ((), secs) = time_once(|| {
        for i in 0..n {
            global
                .insert(&fake_fp(i), ContainerId(i / 1024))
                .expect("insert on an instant store");
        }
    });
    set.set("index.global.insert_us", secs / n as f64 * 1e6);
    global.flush()?;
    let mut rng = Rng::new(7);
    let hits: Vec<Fingerprint> = (0..20_000.min(n))
        .map(|_| fake_fp(rng.below(n as usize) as u64))
        .collect();
    let secs = time_per_item(3, hits.len(), || {
        for fp in &hits {
            black_box(global.get(black_box(fp)).expect("get on an instant store"));
        }
    });
    set.set("index.global.get_us", secs * 1e6);
    let misses: Vec<Fingerprint> = (0..20_000u64).map(|i| fake_fp(n + 1 + i)).collect();
    let secs = time_per_item(5, misses.len(), || {
        for fp in &misses {
            black_box(global.may_contain(black_box(fp)));
        }
    });
    set.set("index.global.miss_ns", secs * 1e9);
    Ok(())
}

/// Object-store primitives on an instant in-memory `Oss`, and what each
/// wrapper of the stack adds to a small read (wrapped minus bare).
fn oss(set: &mut MetricSet) -> slim_types::Result<()> {
    let bare = Arc::new(Oss::in_memory());
    let four_mib = Bytes::from(vec![0x5Au8; 4 * 1024 * 1024]);
    let keys: Vec<String> = (0..64)
        .map(|i| format!("containers/{i:012}/data"))
        .collect();
    let secs = time_per_item(5, keys.len(), || {
        for k in &keys {
            bare.put(k, four_mib.clone())
                .expect("put on an instant store");
        }
    });
    set.set("oss.bare.put_4m_us", secs * 1e6);
    let secs = time_per_item(9, keys.len(), || {
        for k in &keys {
            black_box(bare.get(k).expect("get on an instant store"));
        }
    });
    set.set("oss.bare.get_4m_us", secs * 1e6);
    let secs = time_per_op(25, || {
        black_box(bare.get_many(&keys));
    });
    set.set("oss.get_many_64_us", secs * 1e6);

    // Tenant keys exist under the namespace prefix too, so every wrapper reads the same bytes.
    let tenant: Arc<dyn ObjectStore> = Arc::new(NamespacedStore::new(bare.clone(), "bench")?);
    for k in &keys {
        tenant.put(k, four_mib.clone())?;
    }
    let range_read = |store: &dyn ObjectStore| {
        time_per_item(15, keys.len() * 8, || {
            for round in 0..8u64 {
                for k in &keys {
                    black_box(
                        store
                            .get_range(k, round * 4096, 4096)
                            .expect("range read on an instant store"),
                    );
                }
            }
        })
    };
    let base = range_read(bare.as_ref());
    set.set("oss.bare.get_range_4k_us", base * 1e6);
    let shared: Arc<dyn ObjectStore> = bare.clone();
    let retry = RetryingStore::new(shared.clone(), RetryPolicy::default());
    set.set("oss.retry.overhead_ns", (range_read(&retry) - base) * 1e9);
    let redundant = RedundantStore::new(shared.clone());
    set.set(
        "oss.redundant.overhead_ns",
        (range_read(&redundant) - base) * 1e9,
    );
    let endpoints = SlimConfig::default().oss_endpoints;
    bare.set_endpoints(endpoints);
    let hedged = HedgedStore::new(shared, HedgePolicy::for_endpoints(endpoints));
    set.set("oss.hedged.overhead_ns", (range_read(&hedged) - base) * 1e9);
    set.set(
        "oss.namespaced.overhead_ns",
        (range_read(tenant.as_ref()) - base) * 1e9,
    );
    Ok(())
}

fn telemetry(set: &mut MetricSet, store: &SlimStore) {
    let registry = Registry::new();
    let scope = registry.scope("bench");
    let counter = scope.counter("events");
    const N: usize = 100_000;
    let secs = time_per_item(9, N, || {
        for _ in 0..N {
            counter.add(black_box(1));
        }
    });
    set.set("telemetry.counter_add_ns", secs * 1e9);
    let d = std::time::Duration::from_micros(37);
    let secs = time_per_item(9, N, || {
        for _ in 0..N {
            scope.record_span("phase", black_box(d));
        }
    });
    set.set("telemetry.span_record_ns", secs * 1e9);
    // Snapshot of the workload's real, fully populated registry.
    let secs = time_per_op(200, || {
        black_box(store.telemetry().snapshot());
    });
    set.set("telemetry.snapshot_us", secs * 1e6);
}
