//! Quickstart: back up three versions of a file, run the offline space
//! manager, and restore everything.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use slim_types::FileId;
use slimstore::SlimStoreBuilder;

fn main() -> slim_types::Result<()> {
    // An in-memory deployment (swap in `with_network(NetworkModel::oss_like())`
    // to simulate cloud-object-storage latencies).
    let store = SlimStoreBuilder::in_memory().build()?;

    let file = FileId::new("docs/report.md");
    let v0 = b"# Quarterly report\n\nAll systems nominal.\n".repeat(2000);
    let mut v1 = v0.clone();
    v1.extend_from_slice(b"\n## Addendum\nOne incident, resolved.\n");
    let mut v2 = v1.clone();
    v2.extend_from_slice(b"\n## Second addendum\nCustomer happy.\n");

    // Back up three versions.
    for (i, content) in [&v0, &v1, &v2].into_iter().enumerate() {
        let report = store.backup_version(vec![(file.clone(), content.clone())])?;
        println!(
            "backed up {} ({} files, {:.1} KiB logical, dedup ratio {:.1}%)",
            report.version,
            report.files,
            report.stats.logical_bytes as f64 / 1024.0,
            report.stats.dedup_ratio() * 100.0,
        );
        // The G-node runs offline: exact dedup + sparse container compaction.
        store.run_gnode_cycle(report.version)?;
        assert_eq!(report.version.0, i as u64);
    }

    // Restore and verify every version.
    for (v, expected) in [&v0, &v1, &v2].into_iter().enumerate() {
        let (bytes, stats) = store.restore_file(&file, slim_types::VersionId(v as u64))?;
        assert_eq!(&bytes, expected);
        println!(
            "restored v{v}: {:.1} KiB from {} container reads",
            bytes.len() as f64 / 1024.0,
            stats.containers_read,
        );
    }

    let space = store.space_report()?;
    println!(
        "space on OSS: {:.1} KiB containers + {:.1} KiB recipes (3 versions, {:.1} KiB logical)",
        space.container_bytes as f64 / 1024.0,
        space.recipe_bytes as f64 / 1024.0,
        (v0.len() + v1.len() + v2.len()) as f64 / 1024.0,
    );
    Ok(())
}
