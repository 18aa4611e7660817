//! Fig 2 — CPU and network time breakdown of CDC across backup versions.
//!
//! Paper shape: version 1 (the initial full backup) is network-bound —
//! almost every byte must be uploaded. From version 2 on, dedup removes most
//! uploads and CPU becomes the bottleneck, with chunking dominating: ~60 %
//! of CPU time for Rabin-based CDC, ~40 % for FastCDC; fingerprinting is the
//! second-largest consumer.
//!
//! Both history-aware optimizations are disabled here (this figure motivates
//! them), and the backup runs on the inline engine
//! (`backup_pipeline_threads = 0`): the paper's breakdown is of one thread's
//! CPU time, and with overlapped stages the span totals are summed across
//! stage threads, so `wall − network` would no longer be CPU time and the
//! shares could exceed 100 %.
//!
//! The per-version phase breakdown is regenerated from telemetry span
//! deltas (`lnode.0.span.{chunking,fingerprinting,index,container_io,
//! backup}`), not from per-job stats structs — the same numbers any
//! deployment exports via `SlimStore::telemetry_snapshot()`. With
//! `SLIM_JSON=1` the full cumulative snapshot is emitted per chunker as a
//! `TELEMETRY` line.

use std::sync::Arc;

use slim_bench::{bench_network, pct, print_telemetry, scale, span_secs, Table, VersionedFile};
use slim_index::SimilarFileIndex;
use slim_lnode::node::ChunkerKind;
use slim_lnode::{LNode, StorageLayer};
use slim_oss::Oss;
use slim_telemetry::Registry;
use slim_types::{SlimConfig, VersionId};

fn main() {
    let bytes_per_version = (48.0 * 1024.0 * 1024.0 * scale()) as usize;
    let versions = 5;
    println!("\n== Fig 2: CPU and network time breakdown of CDC ==\n");
    let stream = VersionedFile::new("fig2", bytes_per_version, versions, 0.84);

    for kind in [ChunkerKind::Rabin, ChunkerKind::FastCdc] {
        let cfg = SlimConfig::default()
            .with_skip_chunking(false)
            .with_chunk_merging(false)
            .with_backup_pipeline_threads(0);
        let registry = Registry::new();
        let scope = registry.scope("lnode").child("0");
        let storage = StorageLayer::open(Arc::new(Oss::new(bench_network())));
        let node = LNode::with_chunker(storage, SimilarFileIndex::new(), cfg, kind)
            .unwrap()
            .with_telemetry(scope);
        let mut table = Table::new(&[
            "version",
            "chunking",
            "fingerprint",
            "index query",
            "others",
            "network share of wall",
        ]);
        let mut before = registry.snapshot();
        for v in 0..versions {
            let data = stream.version(v);
            node.backup_file(&stream.file, VersionId(v as u64), &data)
                .unwrap();
            let after = registry.snapshot();
            let delta = after.since(&before);
            before = after;
            let wall = span_secs(&delta, "lnode.0", "backup").max(1e-9);
            let network = span_secs(&delta, "lnode.0", "container_io");
            let chunking = span_secs(&delta, "lnode.0", "chunking");
            let fingerprint = span_secs(&delta, "lnode.0", "fingerprinting");
            let index = span_secs(&delta, "lnode.0", "index");
            let cpu = (wall - network).max(1e-9);
            table.row(vec![
                format!("v{v}"),
                pct(chunking / cpu),
                pct(fingerprint / cpu),
                pct(index / cpu),
                pct((cpu - chunking - fingerprint - index).max(0.0) / cpu),
                pct(network / wall),
            ]);
        }
        println!("-- {kind:?} CDC --");
        table.print();
        print_telemetry(&format!("fig2.{kind:?}"), &registry.snapshot());
        println!();
    }
}
