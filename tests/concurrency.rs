//! Concurrency tests: parallel jobs over the shared storage layer must
//! neither corrupt state nor deadlock — backups across many L-nodes,
//! restores concurrent with backups, and container-id allocation under
//! contention.

use std::sync::Arc;

use slim_oss::rocks::RocksConfig;
use slim_oss::Oss;
use slim_types::rng::bytes as data;
use slim_types::{FileId, SlimConfig, VersionId};
use slimstore::{SlimStore, SlimStoreBuilder};
use slimstore_repro::index::SimilarFileIndex;
use slimstore_repro::lnode::{LNode, StorageLayer};

fn store() -> SlimStore {
    SlimStoreBuilder::in_memory()
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap()
}

#[test]
fn many_concurrent_file_jobs_one_version() {
    let store = store();
    store.scale_l_nodes(4).unwrap();
    let files: Vec<(FileId, Vec<u8>)> = (0..24u64)
        .map(|i| (FileId::new(format!("f{i:02}")), data(i, 12_000)))
        .collect();
    let report = store.backup_version_with_jobs(files.clone(), 12).unwrap();
    assert_eq!(report.files, 24);
    store.run_gnode_cycle(report.version).unwrap();
    store.verify_version(report.version, &files).unwrap();
}

#[test]
fn restores_run_while_backup_progresses() {
    let store = Arc::new(store());
    let file_a = FileId::new("a");
    let file_b = FileId::new("b");
    let a0 = data(1, 30_000);
    let b0 = data(2, 30_000);
    store
        .backup_version(vec![
            (file_a.clone(), a0.clone()),
            (file_b.clone(), b0.clone()),
        ])
        .unwrap();

    // Thread 1 backs up v1 while thread 2 repeatedly restores v0.
    let a1 = data(3, 30_000);
    let b1 = data(4, 30_000);
    std::thread::scope(|s| {
        let st = store.clone();
        let (fa, fb, a1c, b1c) = (file_a.clone(), file_b.clone(), a1.clone(), b1.clone());
        s.spawn(move || {
            st.backup_version_with_jobs(vec![(fa, a1c), (fb, b1c)], 2)
                .unwrap();
        });
        let st = store.clone();
        let (fa, a0c) = (file_a.clone(), a0.clone());
        s.spawn(move || {
            for _ in 0..5 {
                let (bytes, _) = st.restore_file(&fa, VersionId(0)).unwrap();
                assert_eq!(bytes, a0c);
            }
        });
    });
    store
        .verify_version(VersionId(1), &[(file_a, a1), (file_b, b1)])
        .unwrap();
}

#[test]
fn container_ids_unique_under_contention() {
    let storage = StorageLayer::open(Arc::new(Oss::in_memory()));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let storage = storage.clone();
        handles.push(std::thread::spawn(move || {
            (0..200)
                .map(|_| storage.allocate_container_id().0)
                .collect::<Vec<u64>>()
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let total = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "duplicate container ids allocated");
}

#[test]
fn telemetry_registry_is_exact_under_contention() {
    use slimstore_repro::telemetry::Registry;
    const THREADS: usize = 8;
    const METRICS: usize = 16;
    const ITERS: u64 = 2_000;
    let registry = Registry::new();
    // Every thread hammers every metric: counters increment, gauges add,
    // histograms record — handles are looked up by name concurrently, so
    // this also races the get-or-create path.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let registry = registry.clone();
            s.spawn(move || {
                for i in 0..ITERS {
                    for m in 0..METRICS {
                        let scope = registry.scope("node").child(&m.to_string());
                        scope.counter("ops").inc();
                        scope.gauge("depth").add(1);
                        scope.span_histogram("work").record(t as u64 * ITERS + i);
                    }
                }
            });
        }
    });
    let snap = registry.snapshot();
    for m in 0..METRICS {
        assert_eq!(
            snap.counter(&format!("node.{m}.ops")),
            (THREADS as u64) * ITERS,
            "metric {m}: no increment lost"
        );
        assert_eq!(
            snap.gauge(&format!("node.{m}.depth")),
            (THREADS * ITERS as usize) as i64
        );
        let hist = snap.span(&format!("node.{m}"), "work").unwrap();
        assert_eq!(hist.count, (THREADS as u64) * ITERS);
        assert_eq!(hist.min, 0);
        assert_eq!(hist.max, (THREADS as u64 - 1) * ITERS + ITERS - 1);
    }
}

#[test]
fn independent_lnodes_backup_distinct_files_concurrently() {
    let oss = Oss::in_memory();
    let storage = StorageLayer::open(Arc::new(oss));
    let similar = SimilarFileIndex::new();
    let cfg = SlimConfig::small_for_tests();
    let inputs: Vec<(FileId, Vec<u8>)> = (0..6u64)
        .map(|i| (FileId::new(format!("n{i}")), data(40 + i, 20_000)))
        .collect();
    std::thread::scope(|s| {
        for (file, bytes) in &inputs {
            let node = LNode::new(storage.clone(), similar.clone(), cfg.clone()).unwrap();
            s.spawn(move || {
                node.backup_file(file, VersionId(0), bytes).unwrap();
            });
        }
    });
    // All files restore from a fresh node.
    let node = LNode::new(storage, similar, cfg).unwrap();
    for (file, bytes) in &inputs {
        let (out, _) = node.restore_file(file, VersionId(0), None).unwrap();
        assert_eq!(&out, bytes, "{file}");
    }
}
