//! End-to-end system tests: the full SLIMSTORE lifecycle through the public
//! [`slimstore`] API — multi-file versions, G-node cycles, retention,
//! reopening, elastic scaling.

use std::sync::Arc;

use slim_oss::rocks::RocksConfig;
use slim_oss::{ObjectStore, Oss};
use slim_types::{FileId, SlimConfig, VersionId};
use slim_workload::{Workload, WorkloadConfig};
use slimstore::{SlimStore, SlimStoreBuilder};

fn test_store() -> SlimStore {
    SlimStoreBuilder::in_memory()
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap()
}

#[test]
fn workload_lifecycle_with_gnode_and_retention() {
    let store = test_store();
    let workload = Workload::new(WorkloadConfig::tiny_for_tests());
    let versions = workload.config().versions;

    // Back up every version, G-node cycle after each.
    let mut history: Vec<Vec<(FileId, Vec<u8>)>> = Vec::new();
    for v in 0..versions {
        let files: Vec<_> = workload
            .version_files(v)
            .map(|f| (f.file, f.data))
            .collect();
        let report = store.backup_version_with_jobs(files.clone(), 2).unwrap();
        assert_eq!(report.version, VersionId(v as u64));
        store.run_gnode_cycle(report.version).unwrap();
        history.push(files);
    }

    // Every version restores byte-identically, and the metadata scrub
    // agrees everything is resolvable.
    for (v, files) in history.iter().enumerate() {
        store.verify_version(VersionId(v as u64), files).unwrap();
    }
    assert!(store.scrub().unwrap() > 0);

    // Dedup is effective: stored bytes well below logical bytes.
    let logical: u64 = history
        .iter()
        .flat_map(|files| files.iter().map(|(_, d)| d.len() as u64))
        .sum();
    let stored = store.space_report().unwrap().container_bytes;
    // The tiny workload mutates uniformly (the hardest case for dedup);
    // still expect a solid reduction.
    assert!(
        stored * 7 < logical * 5,
        "expected at least 1.4x reduction: {stored} vs {logical}"
    );

    // Keep the last two versions; the rest are swept.
    store.retain_last(2).unwrap();
    assert_eq!(store.versions().len(), 2);
    store.scrub().unwrap();
    for (v, files) in history.iter().enumerate().skip(versions - 2) {
        store.verify_version(VersionId(v as u64), files).unwrap();
    }
    assert!(store.restore_file(&history[0][0].0, VersionId(0)).is_err());
}

#[test]
fn vacuum_reclaims_marked_bytes_without_breaking_restores() {
    let store = test_store();
    let workload = Workload::new(WorkloadConfig::tiny_for_tests());
    let mut history = Vec::new();
    for v in 0..4 {
        let files: Vec<_> = workload
            .version_files(v)
            .map(|f| (f.file, f.data))
            .collect();
        let report = store.backup_version(files.clone()).unwrap();
        store.run_gnode_cycle(report.version).unwrap();
        history.push(files);
    }
    let before = store.space_report().unwrap().container_bytes;
    store.gnode().vacuum().unwrap();
    let after = store.space_report().unwrap().container_bytes;
    assert!(after <= before, "vacuum must not grow the store");
    for (v, files) in history.iter().enumerate() {
        store.verify_version(VersionId(v as u64), files).unwrap();
    }
}

#[test]
fn reopened_deployment_continues_seamlessly() {
    let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
    let workload = Workload::new(WorkloadConfig::tiny_for_tests());
    let v0: Vec<_> = workload
        .version_files(0)
        .map(|f| (f.file, f.data))
        .collect();
    let v1: Vec<_> = workload
        .version_files(1)
        .map(|f| (f.file, f.data))
        .collect();

    {
        let store = SlimStoreBuilder::in_memory()
            .with_object_store(oss.clone())
            .with_config(SlimConfig::small_for_tests())
            .with_rocks_config(RocksConfig::small_for_tests())
            .build()
            .unwrap();
        let r = store.backup_version(v0.clone()).unwrap();
        store.run_gnode_cycle(r.version).unwrap();
    }

    let store = SlimStoreBuilder::in_memory()
        .with_object_store(oss)
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap();
    // Old data restorable; new version dedups against it.
    store.verify_version(VersionId(0), &v0).unwrap();
    let report = store.backup_version(v1.clone()).unwrap();
    assert_eq!(report.version, VersionId(1));
    assert!(
        report.stats.dedup_ratio() > 0.3,
        "similar-file index must survive reopen: {}",
        report.stats.dedup_ratio()
    );
    store.verify_version(VersionId(1), &v1).unwrap();
}

#[test]
fn elastic_scaling_mid_stream() {
    let store = test_store();
    let workload = Workload::new(WorkloadConfig::tiny_for_tests());
    let files: Vec<_> = workload
        .version_files(0)
        .map(|f| (f.file, f.data))
        .collect();
    store.backup_version_with_jobs(files.clone(), 1).unwrap();
    store.scale_l_nodes(4).unwrap();
    let files1: Vec<_> = workload
        .version_files(1)
        .map(|f| (f.file, f.data))
        .collect();
    let report = store.backup_version_with_jobs(files1.clone(), 4).unwrap();
    assert!(report.stats.dedup_ratio() > 0.3);
    store.verify_version(VersionId(0), &files).unwrap();
    store.verify_version(VersionId(1), &files1).unwrap();
}

#[test]
fn restore_version_returns_all_files_in_order() {
    let store = test_store();
    let workload = Workload::new(WorkloadConfig::tiny_for_tests());
    let files: Vec<_> = workload
        .version_files(0)
        .map(|f| (f.file, f.data))
        .collect();
    store.backup_version_with_jobs(files.clone(), 2).unwrap();
    let restored = store.restore_version(VersionId(0), 3).unwrap();
    assert_eq!(restored.len(), files.len());
    for ((f, d), (rf, rd, stats)) in files.iter().zip(&restored) {
        assert_eq!(f, rf);
        assert_eq!(d, rd);
        assert_eq!(stats.restored_bytes, d.len() as u64);
    }
}

#[test]
fn space_report_structure() {
    let store = test_store();
    let workload = Workload::new(WorkloadConfig::tiny_for_tests());
    let files: Vec<_> = workload
        .version_files(0)
        .map(|f| (f.file, f.data))
        .collect();
    let r = store.backup_version(files.clone()).unwrap();
    store.run_gnode_cycle(r.version).unwrap();
    let report = store.space_report().unwrap();
    assert!(report.container_bytes > 0);
    assert!(report.recipe_bytes > 0);
    assert!(report.global_index_bytes > 0, "global index persisted");
    assert!(
        report.redundancy_bytes > 0,
        "the cycle built the redundancy plane"
    );
    assert_eq!(report.quarantine_bytes, 0, "nothing quarantined");
    assert!(report.other_bytes > 0, "manifests + similar index");
    assert_eq!(
        report.total(),
        report.container_bytes
            + report.recipe_bytes
            + report.global_index_bytes
            + report.redundancy_bytes
            + report.quarantine_bytes
            + report.other_bytes
    );
}

#[test]
fn tenants_share_bucket_but_nothing_else() {
    let bucket: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
    let mk = |name: &str| {
        SlimStoreBuilder::in_memory()
            .with_object_store(bucket.clone())
            .with_tenant(name)
            .unwrap()
            .with_config(SlimConfig::small_for_tests())
            .with_rocks_config(RocksConfig::small_for_tests())
            .build()
            .unwrap()
    };
    let acme = mk("acme");
    let globex = mk("globex");
    let file = FileId::new("shared/name.txt");
    let data_a = b"acme secret payroll".repeat(400);
    let data_b = b"globex launch codes".repeat(400);
    acme.backup_version(vec![(file.clone(), data_a.clone())])
        .unwrap();
    globex
        .backup_version(vec![(file.clone(), data_b.clone())])
        .unwrap();
    // Same file id, same version id, fully isolated contents.
    let (got_a, _) = acme.restore_file(&file, VersionId(0)).unwrap();
    let (got_b, _) = globex.restore_file(&file, VersionId(0)).unwrap();
    assert_eq!(got_a, data_a);
    assert_eq!(got_b, data_b);
    // G-node cycles stay in-tenant.
    acme.run_gnode_cycle(VersionId(0)).unwrap();
    acme.scrub().unwrap();
    globex.scrub().unwrap();
    let (got_b2, _) = globex.restore_file(&file, VersionId(0)).unwrap();
    assert_eq!(got_b2, data_b);
    // Reopening a tenant sees only its own history.
    let acme2 = mk("acme");
    assert_eq!(acme2.versions(), vec![VersionId(0)]);
    let (got, _) = acme2.restore_file(&file, VersionId(0)).unwrap();
    assert_eq!(got, data_a);
}

#[test]
fn failed_file_job_fails_the_version_and_retry_succeeds() {
    let oss = Oss::in_memory();
    let store = SlimStoreBuilder::in_memory()
        .with_object_store(Arc::new(oss.clone()))
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap();
    let files: Vec<(FileId, Vec<u8>)> = (0..4u64)
        .map(|i| {
            (
                FileId::new(format!("f{i}")),
                slim_types::rng::bytes(70 + i, 8000),
            )
        })
        .collect();
    // Fail one container write mid-version: the whole version errors.
    oss.inject_fault(slim_oss::FaultPlan::NthOnPrefix {
        prefix: "containers/".into(),
        nth: 3,
    });
    assert!(store.backup_version_with_jobs(files.clone(), 2).is_err());
    oss.clear_faults();
    assert!(
        store.versions().is_empty(),
        "failed version must not be listed"
    );
    // Retry consumes a fresh version id and fully succeeds.
    let report = store.backup_version_with_jobs(files.clone(), 2).unwrap();
    assert_eq!(
        report.version,
        VersionId(1),
        "v0 id was burned by the failure"
    );
    store.verify_version(report.version, &files).unwrap();
    store.run_gnode_cycle(report.version).unwrap();
    store.scrub().unwrap();
}

#[test]
fn retain_last_zero_deletes_everything() {
    let store = test_store();
    let f = FileId::new("f");
    for v in 0..3u64 {
        store
            .backup_version(vec![(f.clone(), vec![v as u8; 4000])])
            .unwrap();
        store.run_gnode_cycle(VersionId(v)).unwrap();
    }
    store.retain_last(0).unwrap();
    assert!(store.versions().is_empty());
    assert!(store.restore_file(&f, VersionId(2)).is_err());
    // The store remains usable afterwards.
    let r = store
        .backup_version(vec![(f.clone(), vec![9u8; 4000])])
        .unwrap();
    store
        .verify_version(r.version, &[(f, vec![9u8; 4000])])
        .unwrap();
}

#[test]
fn scrub_detects_manually_corrupted_store() {
    let oss = Oss::in_memory();
    let store = SlimStoreBuilder::in_memory()
        .with_object_store(Arc::new(oss.clone()))
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap();
    let f = FileId::new("f");
    let data = vec![5u8; 20_000];
    store.backup_version(vec![(f.clone(), data)]).unwrap();
    store.scrub().unwrap();
    // Vandalize: delete one container out from under the recipes.
    let victim = oss
        .list("containers/")
        .into_iter()
        .find(|k| k.ends_with("/meta"))
        .unwrap();
    oss.delete(&victim).unwrap();
    oss.delete(&victim.replace("/meta", "/data")).unwrap();
    let err = store.scrub().unwrap_err();
    assert!(
        matches!(err, slim_types::SlimError::ChunkUnresolvable { .. }),
        "scrub must flag the hole: {err}"
    );
}
