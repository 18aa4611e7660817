//! System tests of the pipelined parallel backup plane: for any thread
//! budget the pipelined path must leave the bucket **byte-identical** to the
//! sequential path — same keys, same container payloads, same recipes, same
//! dedup statistics — because the pipeline only reorganizes *when* work runs,
//! never *what* is computed. The suite checks that equivalence on a seeded
//! multi-file multi-version workload, under seeded transient faults absorbed
//! by the retrying store, across an exhaustive kill-point sweep (the crash
//! commit protocol is unchanged), and through the multi-tenant frontend with
//! the dispatcher pool coupled to the pipeline budget.

use std::sync::Arc;

use slim_frontend::{FrontendBuilder, FrontendConfig, Request};
use slim_oss::rocks::RocksConfig;
use slim_oss::{FaultPlan, NetworkModel, ObjectStore, Oss, RetryPolicy, RetryingStore};
use slim_types::{FileId, SlimConfig, VersionId};
use slim_workload::{Workload, WorkloadConfig};
use slimstore::{SlimStore, SlimStoreBuilder, TenantStoreManager};

fn config_with_threads(threads: usize) -> SlimConfig {
    let mut cfg = SlimConfig::small_for_tests();
    cfg.backup_pipeline_threads = threads;
    cfg
}

fn store_with_threads(oss: Arc<dyn ObjectStore>, threads: usize) -> SlimStore {
    SlimStoreBuilder::in_memory()
        .with_object_store(oss)
        .with_config(config_with_threads(threads))
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap()
}

/// The whole bucket as `(key, bytes)` pairs in key order — the oracle for
/// byte-identity between the sequential and pipelined planes.
fn bucket(oss: &Oss) -> Vec<(String, Vec<u8>)> {
    let mut keys = oss.list("");
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let v = oss.get(&k).unwrap().to_vec();
            (k, v)
        })
        .collect()
}

fn assert_buckets_identical(got: &[(String, Vec<u8>)], want: &[(String, Vec<u8>)], label: &str) {
    let got_keys: Vec<&String> = got.iter().map(|(k, _)| k).collect();
    let want_keys: Vec<&String> = want.iter().map(|(k, _)| k).collect();
    assert_eq!(got_keys, want_keys, "{label}: key sets must match");
    for ((k, g), (_, w)) in got.iter().zip(want) {
        assert_eq!(g, w, "{label}: object {k} must be byte-identical");
    }
}

/// An S-DB-like stream: a few database-table files across versions with
/// high between-version duplication and some self references, so the run
/// exercises skip chunking, chunk merging, and self-referencing recipes.
fn sdb_workload(seed: u64, files: usize, versions: usize, blocks_per_file: usize) -> Workload {
    Workload::new(WorkloadConfig {
        name: format!("pipe-sdb-{seed}"),
        files,
        versions,
        blocks_per_file,
        block_len: 2 * 1024,
        dup_ratio_min: 0.70,
        dup_ratio_max: 0.95,
        self_ref_rate: 0.20,
        hot_fraction: 0.35,
        seed,
    })
}

/// Back every version of the workload up through `store`, verifying each
/// version restores byte-identically as it lands.
fn backup_all(store: &SlimStore, workload: &Workload) {
    for v in 0..workload.config().versions {
        let files: Vec<(FileId, Vec<u8>)> = workload
            .version_files(v)
            .map(|f| (f.file, f.data))
            .collect();
        let report = store.backup_version(files.clone()).unwrap();
        assert_eq!(report.version, VersionId(v as u64));
        store.verify_version(report.version, &files).unwrap();
    }
}

/// The tentpole guarantee: any pipeline thread budget produces exactly the
/// bucket the sequential path produces, key for key and byte for byte.
#[test]
fn pipelined_backup_is_bucket_identical_across_thread_counts() {
    let run = |threads: usize| -> Vec<(String, Vec<u8>)> {
        let oss = Oss::in_memory();
        let store = store_with_threads(Arc::new(oss.clone()), threads);
        backup_all(&store, &sdb_workload(0x5DB, 3, 3, 24));
        bucket(&oss)
    };
    let sequential = run(0);
    assert!(!sequential.is_empty(), "the workload must store objects");
    for threads in [2, 3, 4, 8] {
        let pipelined = run(threads);
        assert_buckets_identical(&pipelined, &sequential, &format!("threads={threads}"));
    }
}

/// The equivalence holds with G-node cycles interleaved between versions:
/// the offline exact-dedup plane consumes identical inputs in both modes,
/// so the post-cycle bucket stays identical too.
#[test]
fn pipelined_backup_with_gnode_cycles_stays_identical() {
    let run = |threads: usize| -> Vec<(String, Vec<u8>)> {
        let oss = Oss::in_memory();
        let store = store_with_threads(Arc::new(oss.clone()), threads);
        let workload = sdb_workload(0x5DB2, 2, 3, 20);
        for v in 0..workload.config().versions {
            let files: Vec<(FileId, Vec<u8>)> = workload
                .version_files(v)
                .map(|f| (f.file, f.data))
                .collect();
            let report = store.backup_version(files.clone()).unwrap();
            store.run_gnode_cycle(report.version).unwrap();
            store.verify_version(report.version, &files).unwrap();
        }
        bucket(&oss)
    };
    assert_buckets_identical(&run(4), &run(0), "threads=4 with cycles");
}

/// Seeded transient chaos (p = 0.3 on every OSS operation) absorbed by the
/// retrying store: the pipelined plane retries through the same wrapper the
/// sequential plane does, nothing gives up, and the final buckets are still
/// byte-identical. The fault schedule hits *different* physical operations
/// in each mode (the interleaving differs); byte-identity must survive that.
#[test]
fn pipelined_backup_absorbs_transient_chaos_identically() {
    let run = |threads: usize| -> Vec<(String, Vec<u8>)> {
        let oss = Oss::in_memory();
        oss.inject_fault(FaultPlan::TransientProb {
            prefix: String::new(),
            prob: 0.3,
            seed: 0x9A5_71DE,
        });
        let retrying = RetryingStore::new(Arc::new(oss.clone()), RetryPolicy::no_delay(16));
        let store = store_with_threads(Arc::new(retrying), threads);
        backup_all(&store, &sdb_workload(0xC4A0, 2, 3, 20));
        let snap = store.oss().metrics_snapshot().unwrap();
        assert!(snap.retries > 0, "the schedule must actually have fired");
        assert_eq!(snap.giveups, 0, "16 attempts must outlast p=0.3");
        oss.clear_faults();
        bucket(&oss)
    };
    assert_buckets_identical(&run(3), &run(0), "threads=3 under chaos");
}

fn sorted_keys(oss: &Oss) -> Vec<String> {
    let mut keys = oss.list("");
    keys.sort();
    keys
}

/// Kill a *pipelined* backup at every OSS operation index in turn — the
/// crash-commit protocol (containers, then recipe, then index, then version
/// manifest; `UploadSink::finish` joins the uploader before any commit
/// object is written) must hold under concurrency exactly as it does
/// sequentially: no partial version ever becomes visible, the committed
/// version stays restorable, and one orphan scrub returns the bucket to the
/// committed key set.
#[test]
fn pipelined_kill_point_sweep_commits_or_leaves_reclaimable_orphans_only() {
    let oss = Oss::in_memory();
    let file_a = FileId::new("db/a");
    let file_b = FileId::new("db/b");
    let data = slim_types::rng::bytes;
    let da0 = data(80, 24_000);
    let db0 = data(81, 16_000);
    let mut da1 = da0.clone();
    da1[3_000..3_400].copy_from_slice(&data(82, 400));
    let db1 = data(83, 16_000);
    let v0_files = vec![(file_a.clone(), da0.clone()), (file_b.clone(), db0.clone())];
    let v1_files = vec![(file_a.clone(), da1.clone()), (file_b.clone(), db1.clone())];

    // Commit v0 (also pipelined), then capture the committed key set.
    {
        let store = store_with_threads(Arc::new(oss.clone()), 3);
        store.backup_version(v0_files.clone()).unwrap();
    }
    let baseline = sorted_keys(&oss);

    // Under the pipeline the operation order is not identical between
    // attempts (uploader and dedup-thread operations interleave freely), so
    // `kill_point` sweeps the operation *count*, not one fixed sequence —
    // every attempt still kills some physical operation, and the commit
    // protocol must hold whichever one it was.
    let mut total_orphans = 0u64;
    let mut succeeded = false;
    for kill_point in 1..=10_000u64 {
        let store = store_with_threads(Arc::new(oss.clone()), 3);
        oss.inject_fault(FaultPlan::NthOnPrefix {
            prefix: String::new(),
            nth: kill_point,
        });
        let result = store.backup_version(v1_files.clone());
        oss.clear_faults();
        match result {
            Ok(report) => {
                // The kill point lies past this attempt's operation count:
                // the version is durable and the sweep is over.
                assert_eq!(report.version, VersionId(1));
                store.verify_version(VersionId(0), &v0_files).unwrap();
                store.verify_version(VersionId(1), &v1_files).unwrap();
                succeeded = true;
                break;
            }
            Err(_) => {
                assert_eq!(
                    store.versions(),
                    vec![VersionId(0)],
                    "kill point {kill_point}: no partial version may be visible"
                );
                store.verify_version(VersionId(0), &v0_files).unwrap();
                let stats = store.scrub_orphans().unwrap();
                total_orphans += stats.objects_reclaimed();
                assert_eq!(
                    sorted_keys(&oss),
                    baseline,
                    "kill point {kill_point}: scrub must restore the committed key set"
                );
                let again = store.scrub_orphans().unwrap();
                assert_eq!(
                    again.objects_reclaimed(),
                    0,
                    "kill point {kill_point}: scrub must be idempotent"
                );
            }
        }
    }
    assert!(succeeded, "the sweep never ran past the end of the backup");
    assert!(
        total_orphans > 0,
        "at least one kill point must leave orphans"
    );
}

/// The multi-tenant frontend with the pipeline enabled: the dispatcher pool
/// is shrunk by `coupled_to_pipeline` so admission byte-budgets still bound
/// total working memory, and every tenant's backups and restores stay
/// byte-identical through the pipelined plane.
#[test]
fn frontend_runs_pipelined_backups_byte_identically() {
    let manager = Arc::new(
        TenantStoreManager::in_memory(NetworkModel::instant())
            .with_config(config_with_threads(3))
            .with_rocks_config(RocksConfig::small_for_tests()),
    );
    let fe = FrontendBuilder::new(manager)
        .with_config(
            FrontendConfig::small_for_tests()
                .with_workers(8)
                .coupled_to_pipeline(3),
        )
        .start()
        .unwrap();

    let workload = sdb_workload(0xFE, 2, 2, 16);
    let mut history: Vec<Vec<(FileId, Vec<u8>)>> = Vec::new();
    for v in 0..workload.config().versions {
        let files: Vec<(FileId, Vec<u8>)> = workload
            .version_files(v)
            .map(|f| (f.file, f.data))
            .collect();
        for tenant in ["acme", "globex"] {
            let report = fe
                .submit(
                    tenant,
                    Request::Backup {
                        files: files.clone(),
                        jobs: 2,
                    },
                )
                .unwrap()
                .wait()
                .unwrap()
                .into_backup()
                .unwrap();
            assert_eq!(report.version, VersionId(v as u64));
        }
        history.push(files);
    }
    for (v, files) in history.iter().enumerate() {
        for tenant in ["acme", "globex"] {
            for (file, expected) in files {
                let (bytes, _) = fe
                    .submit(
                        tenant,
                        Request::RestoreFile {
                            file: file.clone(),
                            version: VersionId(v as u64),
                        },
                    )
                    .unwrap()
                    .wait()
                    .unwrap()
                    .into_file()
                    .unwrap();
                assert_eq!(&bytes, expected, "tenant {tenant} v{v} {file}");
            }
        }
    }
    fe.shutdown();
}

/// Release-stress soak: a larger workload, more thread counts, G-node
/// cycles and retention interleaved. Run with `--ignored` in the release
/// stress CI job.
#[test]
#[ignore]
fn soak_pipelined_equivalence_under_large_workload() {
    let run = |threads: usize| -> Vec<(String, Vec<u8>)> {
        let oss = Oss::in_memory();
        let store = store_with_threads(Arc::new(oss.clone()), threads);
        let workload = sdb_workload(0x50A1, 4, 5, 96);
        for v in 0..workload.config().versions {
            let files: Vec<(FileId, Vec<u8>)> = workload
                .version_files(v)
                .map(|f| (f.file, f.data))
                .collect();
            let report = store.backup_version(files.clone()).unwrap();
            store.run_gnode_cycle(report.version).unwrap();
            store.verify_version(report.version, &files).unwrap();
        }
        bucket(&oss)
    };
    let sequential = run(0);
    for threads in [2, 4, 8, 16] {
        assert_buckets_identical(
            &run(threads),
            &sequential,
            &format!("soak threads={threads}"),
        );
    }
}
