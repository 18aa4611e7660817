//! Fig 5 — performance of history-aware skip chunking.
//!
//! Paper shapes:
//! * (a) dedup throughput vs chunk size: skip chunking gives Rabin ≈2× and
//!   FastCDC ≈1.5×; throughput grows with chunk size and flattens ≥32 KB;
//! * (b) dedup ratio vs chunk size: skip chunking is lossless (identical
//!   ratio to the plain CDC), and the ratio degrades as chunks grow —
//!   sharply above 16 KB;
//! * (c) throughput vs file duplication ratio: the win grows with the dup
//!   ratio (more consecutive duplicates → more successful skips);
//! * (d) CPU-time breakdown with skip chunking on: CDC drops to ~2 %.

use std::sync::Arc;

use slim_bench::{
    bench_network_fast, f1, pct, print_telemetry, scale, span_secs, Table, VersionedFile,
};
use slim_index::SimilarFileIndex;
use slim_lnode::node::ChunkerKind;
use slim_lnode::{BackupStats, LNode, StorageLayer};
use slim_oss::Oss;
use slim_telemetry::Registry;
use slim_types::{SlimConfig, VersionId};

/// Back up v0 then v1 of `stream`; return v1's stats.
fn run(stream: &VersionedFile, cfg: SlimConfig, kind: ChunkerKind) -> BackupStats {
    let storage = StorageLayer::open(Arc::new(Oss::new(bench_network_fast())));
    let node = LNode::with_chunker(storage, SimilarFileIndex::new(), cfg, kind).unwrap();
    node.backup_file(&stream.file, VersionId(0), &stream.version(0))
        .unwrap();
    node.backup_file(&stream.file, VersionId(1), &stream.version(1))
        .unwrap()
        .stats
}

fn main() {
    let bytes = (32.0 * 1024.0 * 1024.0 * scale()) as usize;
    let base_cfg = || SlimConfig::default().with_chunk_merging(false);

    // -- (a) + (b): vary chunk size --------------------------------------
    println!("\n== Fig 5(a,b): throughput and dedup ratio vs chunk size ==\n");
    let stream = VersionedFile::with_block_len("fig5ab", bytes, 2, 0.84, 64 * 1024);
    let mut table = Table::new(&[
        "chunk size",
        "algo",
        "MB/s (no skip)",
        "MB/s (skip)",
        "speedup",
        "ratio (no skip)",
        "ratio (skip)",
    ]);
    for kb in [4usize, 8, 16, 32, 64] {
        for kind in [ChunkerKind::Rabin, ChunkerKind::FastCdc] {
            let cfg = base_cfg().with_avg_chunk_size(kb * 1024);
            let off = run(&stream, cfg.clone().with_skip_chunking(false), kind);
            let on = run(&stream, cfg.with_skip_chunking(true), kind);
            table.row(vec![
                format!("{kb} KB"),
                format!("{kind:?}"),
                f1(off.throughput_mbps()),
                f1(on.throughput_mbps()),
                format!(
                    "{:.2}x",
                    on.throughput_mbps() / off.throughput_mbps().max(1e-9)
                ),
                pct(off.dedup_ratio()),
                pct(on.dedup_ratio()),
            ]);
        }
    }
    table.print();

    // -- (c): vary file duplication ratio ---------------------------------
    println!("\n== Fig 5(c): throughput vs file duplication ratio (4 KB chunks) ==\n");
    let mut table = Table::new(&[
        "dup ratio",
        "algo",
        "MB/s (no skip)",
        "MB/s (skip)",
        "speedup",
        "skip hits",
        "skip misses",
    ]);
    for dup in [0.65, 0.75, 0.85, 0.95] {
        let stream = VersionedFile::new(&format!("fig5c-{dup}"), bytes, 2, dup);
        for kind in [ChunkerKind::Rabin, ChunkerKind::FastCdc] {
            let off = run(&stream, base_cfg().with_skip_chunking(false), kind);
            let on = run(&stream, base_cfg().with_skip_chunking(true), kind);
            table.row(vec![
                format!("{dup:.2}"),
                format!("{kind:?}"),
                f1(off.throughput_mbps()),
                f1(on.throughput_mbps()),
                format!(
                    "{:.2}x",
                    on.throughput_mbps() / off.throughput_mbps().max(1e-9)
                ),
                on.skip_hits.to_string(),
                on.skip_misses.to_string(),
            ]);
        }
    }
    table.print();

    // -- (d): CPU time breakdown with skip chunking -----------------------
    // Regenerated from telemetry span deltas of the v1 backup, like Fig 2:
    // the same `lnode.0.span.*` histograms any deployment exports. Inline
    // engine, as in Fig 2: `wall − network` is one thread's CPU time only
    // when no stage overlaps another.
    println!("\n== Fig 5(d): CPU time breakdown with skip chunking on (v1) ==\n");
    let stream = VersionedFile::new("fig5d", bytes, 2, 0.84);
    let mut table = Table::new(&["algo", "chunking", "fingerprint", "index query", "others"]);
    for kind in [ChunkerKind::Rabin, ChunkerKind::FastCdc] {
        let registry = Registry::new();
        let storage = StorageLayer::open(Arc::new(Oss::new(bench_network_fast())));
        let node = LNode::with_chunker(
            storage,
            SimilarFileIndex::new(),
            base_cfg()
                .with_skip_chunking(true)
                .with_backup_pipeline_threads(0),
            kind,
        )
        .unwrap()
        .with_telemetry(registry.scope("lnode").child("0"));
        node.backup_file(&stream.file, VersionId(0), &stream.version(0))
            .unwrap();
        let before = registry.snapshot();
        node.backup_file(&stream.file, VersionId(1), &stream.version(1))
            .unwrap();
        let delta = registry.snapshot().since(&before);
        let wall = span_secs(&delta, "lnode.0", "backup").max(1e-9);
        let network = span_secs(&delta, "lnode.0", "container_io");
        let chunking = span_secs(&delta, "lnode.0", "chunking");
        let fingerprint = span_secs(&delta, "lnode.0", "fingerprinting");
        let index = span_secs(&delta, "lnode.0", "index");
        let cpu = (wall - network).max(1e-9);
        table.row(vec![
            format!("{kind:?}"),
            pct(chunking / cpu),
            pct(fingerprint / cpu),
            pct(index / cpu),
            pct((cpu - chunking - fingerprint - index).max(0.0) / cpu),
        ]);
        print_telemetry(&format!("fig5d.{kind:?}"), &delta);
    }
    table.print();
    println!();
}
