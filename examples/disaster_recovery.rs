//! Disaster recovery drill: after many backup generations and offline space
//! management, restore both the newest version (the fast path the system
//! optimizes for) and an old version (served through the global index after
//! reverse deduplication relocated its chunks).
//!
//! ```sh
//! cargo run --release --example disaster_recovery
//! ```

use slim_oss::NetworkModel;
use slim_types::{FileId, VersionId};
use slimstore::SlimStoreBuilder;

fn mutate(data: &mut Vec<u8>, round: u64) {
    // Rewrite a hot region; the cold tail stays stable.
    let len = data.len();
    let at = (round as usize * 7919) % (len / 3);
    for b in &mut data[at..(at + len / 20).min(len)] {
        *b = b.wrapping_add(round as u8 + 1);
    }
}

fn main() -> slim_types::Result<()> {
    let store = SlimStoreBuilder::in_memory()
        .with_network(NetworkModel::oss_like())
        .build()?;

    let file = FileId::new("vm/disk.img");
    let mut image = slim_types::rng::bytes(2026, 24 * 1024 * 1024);

    let generations = 10u64;
    let mut history = Vec::new();
    println!("taking {generations} backup generations with offline space management...");
    for g in 0..generations {
        let report = store.backup_version(vec![(file.clone(), image.clone())])?;
        store.run_gnode_cycle(report.version)?;
        history.push(image.clone());
        mutate(&mut image, g);
    }

    // Old versions shed weight as the G-node moves shared data forward.
    let v0_live = store.gnode().version_occupied_bytes(VersionId(0))?;
    println!(
        "version 0's containers hold {:.1} MiB live (of {:.1} MiB originally)\n",
        v0_live as f64 / (1024.0 * 1024.0),
        history[0].len() as f64 / (1024.0 * 1024.0),
    );

    // Drill 1: newest version — the optimized path (SCC + FV cache + LAW
    // prefetching).
    let newest = VersionId(generations - 1);
    let (bytes, stats) = store.restore_file(&file, newest)?;
    assert_eq!(bytes, history[generations as usize - 1]);
    println!(
        "newest ({newest}): {:.1} MB/s, {} container reads, {} prefetch hits",
        stats.throughput_mbps(),
        stats.containers_read,
        stats.prefetch_hits,
    );

    // Drill 2: oldest version — relocated chunks resolve through the global
    // fingerprint index (the cost the system deliberately shifts to rarely
    // restored old data).
    let (bytes, stats) = store.restore_file(&file, VersionId(0))?;
    assert_eq!(bytes, history[0]);
    println!(
        "oldest (v0):    {:.1} MB/s, {} container reads, {} relocation lookups",
        stats.throughput_mbps(),
        stats.containers_read,
        stats.relocation_lookups,
    );

    println!("\nboth drills verified byte-identical — recovery plan holds");
    Ok(())
}
