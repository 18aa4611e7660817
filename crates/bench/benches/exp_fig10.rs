//! Fig 10 — SLIMSTORE vs restic on the R-Data workload.
//!
//! Paper shapes:
//! * (a) SLIMSTORE backup throughput scales linearly with concurrent jobs
//!   (adding L-nodes past the per-node limit); a single job beats restic by
//!   ~25 %; restic's repository lock keeps it flat regardless of job count;
//! * (b) restore throughput scales the same way (2 prefetch threads/job);
//!   restic is again flat;
//! * (c) SLIMSTORE occupies ~20 % less space than restic (adaptive chunk
//!   sizes), and global reverse dedup trims a further ~4.6 %.
//!
//! Chunk sizes are scaled with the dataset: the paper used 256 KB–2 MB
//! superchunks against restic's 1 MB chunks on TB-scale data; we keep the
//! same 4:1 restic-to-SLIMSTORE base ratio at laptop scale.

use std::sync::Arc;
use std::time::{Duration, Instant};

use slim_baselines::ResticSim;
use slim_bench::{f1, mib, pct, print_telemetry, scale, Table};
use slim_types::{FileId, VersionId};
use slim_workload::{Workload, WorkloadConfig};
use slimstore::{SlimStore, SlimStoreBuilder};

/// Jobs one L-node can carry before another node is deployed (paper: 13
/// backup jobs / 8 restore jobs per ECS node).
const BACKUP_JOBS_PER_NODE: usize = 13;
const RESTORE_JOBS_PER_NODE: usize = 8;

fn slim_store() -> SlimStore {
    let cfg = slim_types::SlimConfig::default().with_avg_chunk_size(8 * 1024);
    SlimStoreBuilder::in_memory()
        .with_network(slim_bench::bench_network_fast())
        .with_config(cfg)
        .build()
        .unwrap()
}

fn restic_repo() -> ResticSim {
    let oss = slim_oss::Oss::new(slim_bench::bench_network_fast());
    // 4x SLIMSTORE's base chunk size (restic's 1MB vs 256KB in the paper),
    // plus OSSFS per-operation overhead.
    ResticSim::new(Arc::new(oss), Duration::from_micros(400), 32 * 1024)
}

fn main() {
    let mut cfg = WorkloadConfig::rdata(scale());
    cfg.files = cfg.files.clamp(8, 32);
    let workload = Workload::new(cfg.clone());
    let files_v: Vec<Vec<(FileId, Vec<u8>)>> = (0..2)
        .map(|v| {
            workload
                .version_files(v)
                .map(|f| (f.file, f.data))
                .collect()
        })
        .collect();
    let v1_bytes: u64 = files_v[1].iter().map(|(_, d)| d.len() as u64).sum();

    // ---- (a): backup throughput vs concurrent jobs ----------------------
    println!("\n== Fig 10(a): backup throughput vs concurrent jobs ==\n");
    let mut table = Table::new(&["jobs", "L-nodes", "SLIMSTORE MB/s", "restic MB/s"]);
    for jobs in [1usize, 2, 4, 8, 16] {
        // Fresh deployments per point: measure v1 (the dedup path) after a
        // warm-up v0.
        let store = slim_store();
        store
            .scale_l_nodes(jobs.div_ceil(BACKUP_JOBS_PER_NODE))
            .unwrap();
        store
            .backup_version_with_jobs(files_v[0].clone(), jobs)
            .unwrap();
        let t = Instant::now();
        store
            .backup_version_with_jobs(files_v[1].clone(), jobs)
            .unwrap();
        let slim_mbps = slim_bench::mbps(v1_bytes, t.elapsed());

        let restic = Arc::new(restic_repo());
        for (f, d) in &files_v[0] {
            restic.backup_file(f, VersionId(0), d).unwrap();
        }
        let t = Instant::now();
        std::thread::scope(|s| {
            let chunks: Vec<_> = files_v[1].chunks(files_v[1].len().div_ceil(jobs)).collect();
            for chunk in chunks {
                let restic = restic.clone();
                s.spawn(move || {
                    for (f, d) in chunk {
                        restic.backup_file(f, VersionId(1), d).unwrap();
                    }
                });
            }
        });
        let restic_mbps = slim_bench::mbps(v1_bytes, t.elapsed());
        table.row(vec![
            jobs.to_string(),
            jobs.div_ceil(BACKUP_JOBS_PER_NODE).to_string(),
            f1(slim_mbps),
            f1(restic_mbps),
        ]);
    }
    table.print();

    // ---- (b): restore throughput vs concurrent jobs ---------------------
    println!("\n== Fig 10(b): restore throughput vs concurrent jobs ==\n");
    // One shared deployment with both versions backed up.
    let store = slim_store();
    store
        .backup_version_with_jobs(files_v[0].clone(), 4)
        .unwrap();
    store
        .backup_version_with_jobs(files_v[1].clone(), 4)
        .unwrap();
    let restic = Arc::new(restic_repo());
    for v in 0..2u64 {
        for (f, d) in &files_v[v as usize] {
            restic.backup_file(f, VersionId(v), d).unwrap();
        }
    }
    let mut table = Table::new(&["jobs", "L-nodes", "SLIMSTORE MB/s", "restic MB/s"]);
    for jobs in [1usize, 2, 4, 8, 16] {
        store
            .scale_l_nodes(jobs.div_ceil(RESTORE_JOBS_PER_NODE))
            .unwrap();
        let t = Instant::now();
        let restored = store.restore_version(VersionId(1), jobs).unwrap();
        let bytes: u64 = restored.iter().map(|(_, d, _)| d.len() as u64).sum();
        let slim_mbps = slim_bench::mbps(bytes, t.elapsed());

        let t = Instant::now();
        std::thread::scope(|s| {
            let chunks: Vec<_> = files_v[1].chunks(files_v[1].len().div_ceil(jobs)).collect();
            for chunk in chunks {
                let restic = restic.clone();
                s.spawn(move || {
                    for (f, _) in chunk {
                        restic.restore_file(f, VersionId(1)).unwrap();
                    }
                });
            }
        });
        let restic_mbps = slim_bench::mbps(v1_bytes, t.elapsed());
        table.row(vec![
            jobs.to_string(),
            jobs.div_ceil(RESTORE_JOBS_PER_NODE).to_string(),
            f1(slim_mbps),
            f1(restic_mbps),
        ]);
    }
    table.print();

    // ---- (c): occupied space --------------------------------------------
    println!(
        "\n== Fig 10(c): occupied space after {} versions ==\n",
        cfg.versions
    );
    let slim_l = slim_store(); // L-dedupe only
    let slim_lg = slim_store(); // with G-node cycles
    let restic = restic_repo();
    let mut gnode_time = Duration::ZERO;
    for v in 0..cfg.versions {
        let files: Vec<_> = workload
            .version_files(v)
            .map(|f| (f.file, f.data))
            .collect();
        let r = slim_l.backup_version_with_jobs(files.clone(), 4).unwrap();
        let r2 = slim_lg.backup_version_with_jobs(files.clone(), 4).unwrap();
        assert_eq!(r.version, r2.version);
        let t = Instant::now();
        slim_lg.run_gnode_cycle(r2.version).unwrap();
        slim_lg.gnode().vacuum().unwrap();
        gnode_time += t.elapsed();
        for (f, d) in &files {
            restic.backup_file(f, VersionId(v as u64), d).unwrap();
        }
    }
    println!(
        "G-node cycle time (all versions): {:.2}s",
        gnode_time.as_secs_f64(),
    );
    let slim_l_bytes = slim_l.space_report().unwrap().container_bytes;
    let slim_lg_bytes = slim_lg.space_report().unwrap().container_bytes;
    let restic_bytes = restic.repository_bytes();
    let mut table = Table::new(&["system", "occupied MiB"]);
    table.row(vec!["restic".into(), mib(restic_bytes)]);
    table.row(vec!["SLIMSTORE (L-dedupe)".into(), mib(slim_l_bytes)]);
    table.row(vec![
        "SLIMSTORE (+reverse dedup)".into(),
        mib(slim_lg_bytes),
    ]);
    table.print();
    // Where reverse dedup's savings came from: the gnode.* counters and
    // cycle-stage spans of the G-enabled deployment (SLIM_JSON=1).
    print_telemetry("fig10c.slim_lg", &slim_lg.telemetry_snapshot());
    println!(
        "\nSLIMSTORE saves {} vs restic (paper ~20%); reverse dedup adds {} (paper 4.6%)\n",
        pct(1.0 - slim_lg_bytes as f64 / restic_bytes.max(1) as f64),
        pct(1.0 - slim_lg_bytes as f64 / slim_l_bytes.max(1) as f64),
    );
}
