//! The paper's motivating scenario: a database uploads full snapshots of its
//! table files on a schedule. SLIMSTORE dedups the incremental changes,
//! keeps the latest versions fast to restore, and drains the storage cost of
//! old versions over time.
//!
//! ```sh
//! cargo run --release --example database_backup
//! ```

use slim_oss::NetworkModel;
use slim_types::VersionId;
use slim_workload::{Workload, WorkloadConfig};
use slimstore::SlimStoreBuilder;

fn main() -> slim_types::Result<()> {
    // S-DB-shaped workload: simulated database table files evolved by
    // insert/update/delete, duplication ratio 0.65–0.95 between versions.
    let mut cfg = WorkloadConfig::sdb(0.2);
    cfg.versions = 10;
    let workload = Workload::new(cfg.clone());

    // OSS-like network: per-request latency, bounded per-channel bandwidth.
    let store = SlimStoreBuilder::in_memory()
        .with_network(NetworkModel::oss_like())
        .build()?;
    store.scale_l_nodes(2)?;

    println!(
        "backing up {} table files x {} nightly versions...\n",
        cfg.files, cfg.versions
    );
    for v in 0..cfg.versions {
        let files: Vec<_> = workload
            .version_files(v)
            .map(|f| (f.file, f.data))
            .collect();
        let report = store.backup_version_with_jobs(files, 4)?;
        store.run_gnode_cycle(report.version)?;
        let space = store.space_report()?;
        println!(
            "night {:>2}: {:>7.1} MiB logical, dedup {:>5.1}%, {:>6.1} MB/s, store now {:>7.1} MiB",
            v,
            report.stats.logical_bytes as f64 / (1024.0 * 1024.0),
            report.stats.dedup_ratio() * 100.0,
            report.stats.throughput_mbps(),
            space.container_bytes as f64 / (1024.0 * 1024.0),
        );
    }

    // Old versions cost less over time: reverse dedup + compaction moved
    // shared data forward.
    let v0_bytes = store.gnode().version_occupied_bytes(VersionId(0))?;
    println!(
        "\nversion 0's containers now hold only {:.1} MiB of live data",
        v0_bytes as f64 / (1024.0 * 1024.0)
    );

    // Keep a one-week retention window.
    let retention = store.retain_last(7)?;
    println!(
        "retention sweep reclaimed {:.1} MiB ({} containers, {} stale redundancy objects); versions kept: {:?}",
        retention.bytes_reclaimed as f64 / (1024.0 * 1024.0),
        retention.containers_deleted,
        retention.redundancy_objects_dropped(),
        store.versions().iter().map(|v| v.0).collect::<Vec<_>>(),
    );

    // Point-in-time restore of the latest version, fast path.
    let latest = *store.versions().last().expect("versions remain");
    let restored = store.restore_version(latest, 4)?;
    let total: u64 = restored.iter().map(|(_, d, _)| d.len() as u64).sum();
    let reads: u64 = restored.iter().map(|(_, _, s)| s.containers_read).sum();
    println!(
        "restored {} ({} files, {:.1} MiB) with {} container reads",
        latest,
        restored.len(),
        total as f64 / (1024.0 * 1024.0),
        reads,
    );
    Ok(())
}
