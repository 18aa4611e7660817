//! Fig 6 — performance of history-aware chunk merging.
//!
//! Paper shapes:
//! * (a) chunk merging improves dedup throughput, most for high-duplication
//!   files (>20 % at dup ratio 0.95), and the average chunk size after
//!   merging grows with the dup ratio;
//! * (b) the dedup-ratio cost is small for high-duplication files (~0.9 % at
//!   0.95) and larger for low-duplication files.
//!
//! Setup follows §VII-B: initial chunk size 4 KB, merge threshold
//! `duplicateTimes >= 5`, measured on the versions after merging kicks in.
//! Backups run on the inline engine (`backup_pipeline_threads = 0`), the
//! single-thread reference the paper's throughput lines describe.

use std::sync::Arc;

use slim_bench::{bench_network_fast, f1, pct, scale, Table, VersionedFile};
use slim_index::SimilarFileIndex;
use slim_lnode::{LNode, StorageLayer};
use slim_oss::Oss;
use slim_types::{SlimConfig, VersionId};

struct Outcome {
    mbps: f64,
    dedup_ratio: f64,
    avg_chunk: f64,
}

/// Back up `versions` versions; return the last version's numbers.
fn run(stream: &VersionedFile, merging: bool, versions: usize) -> Outcome {
    // Skip chunking off: this figure isolates the effect of merging. Small
    // superchunks (8 members = ~32 KB) survive the workload's mutation
    // granularity, like the paper's database tables.
    let mut cfg = SlimConfig::default()
        .with_skip_chunking(false)
        .with_chunk_merging(merging)
        .with_backup_pipeline_threads(0);
    cfg.superchunk_max_members = 8;
    let storage = StorageLayer::open(Arc::new(Oss::new(bench_network_fast())));
    let node = LNode::new(storage.clone(), SimilarFileIndex::new(), cfg).unwrap();
    let mut last = None;
    for v in 0..versions {
        let out = node
            .backup_file(&stream.file, VersionId(v as u64), &stream.version(v))
            .unwrap();
        last = Some(out);
    }
    let out = last.expect("at least one version");
    let recipe = storage
        .get_recipe(&stream.file, VersionId(versions as u64 - 1))
        .unwrap();
    Outcome {
        mbps: out.stats.throughput_mbps(),
        dedup_ratio: out.stats.dedup_ratio(),
        avg_chunk: recipe.logical_bytes() as f64 / recipe.record_count().max(1) as f64,
    }
}

fn main() {
    let bytes = (32.0 * 1024.0 * 1024.0 * scale()) as usize;
    let versions = 9; // merge threshold 5 → superchunks from ~v5 on
    println!(
        "\n== Fig 6: history-aware chunk merging (v{} of {versions}) ==\n",
        versions - 1
    );
    let mut table = Table::new(&[
        "dup ratio",
        "MB/s (no merge)",
        "MB/s (merge)",
        "speedup",
        "avg chunk KB (merge)",
        "ratio (no merge)",
        "ratio (merge)",
        "ratio loss",
    ]);
    for dup in [0.65, 0.75, 0.85, 0.95] {
        let stream =
            VersionedFile::with_block_len(&format!("fig6-{dup}"), bytes, versions, dup, 32 * 1024);
        let off = run(&stream, false, versions);
        let on = run(&stream, true, versions);
        table.row(vec![
            format!("{dup:.2}"),
            f1(off.mbps),
            f1(on.mbps),
            format!("{:.2}x", on.mbps / off.mbps.max(1e-9)),
            f1(on.avg_chunk / 1024.0),
            pct(off.dedup_ratio),
            pct(on.dedup_ratio),
            pct(off.dedup_ratio - on.dedup_ratio),
        ]);
    }
    table.print();
    println!();
}
