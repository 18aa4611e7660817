//! Fault-injection tests: OSS failures must surface as errors — never as
//! silent corruption — and previously persisted versions must stay
//! restorable after a failed job.
//!
//! The system-level tests at the bottom exercise the crash-consistency
//! story: an exhaustive kill-point sweep over a backup's operation sequence
//! (every committed version survives; the orphan scrub restores the
//! committed key set), and seeded transient-fault chaos absorbed by the
//! retrying store with zero divergence.

use std::sync::Arc;
use std::time::Duration;

use slim_oss::rocks::RocksConfig;
use slim_oss::{CorruptionKind, FaultPlan, ObjectStore, Oss, RetryPolicy, RetryingStore};
use slim_types::rng::bytes as data;
use slim_types::{FileId, SlimConfig, SlimError, VersionId};
use slimstore::{SlimStore, SlimStoreBuilder};
use slimstore_repro::chunking::{ChunkSpec, FastCdcChunker};
use slimstore_repro::index::SimilarFileIndex;
use slimstore_repro::lnode::backup::BackupPipeline;
use slimstore_repro::lnode::restore::{RestoreEngine, RestoreOptions};
use slimstore_repro::lnode::StorageLayer;

struct Env {
    oss: Oss,
    storage: StorageLayer,
    similar: SimilarFileIndex,
    cfg: SlimConfig,
}

fn setup() -> Env {
    let oss = Oss::in_memory();
    Env {
        storage: StorageLayer::open(Arc::new(oss.clone())),
        oss,
        similar: SimilarFileIndex::new(),
        cfg: SlimConfig::small_for_tests(),
    }
}

impl Env {
    fn backup(&self, file: &FileId, v: u64, bytes: &[u8]) -> slim_types::Result<()> {
        let chunker = FastCdcChunker::new(ChunkSpec::from_config(&self.cfg));
        BackupPipeline::new(&self.storage, &self.similar, &chunker, &self.cfg)
            .backup_file(file, VersionId(v), bytes)
            .map(|_| ())
    }

    fn restore(&self, file: &FileId, v: u64) -> slim_types::Result<Vec<u8>> {
        RestoreEngine::new(&self.storage, None)
            .restore_file(file, VersionId(v), &RestoreOptions::from_config(&self.cfg))
            .map(|(bytes, _)| bytes)
    }
}

#[test]
fn container_write_failure_fails_backup() {
    let env = setup();
    let file = FileId::new("f");
    env.oss
        .inject_fault(FaultPlan::KeyPrefix("containers/".into()));
    let err = env.backup(&file, 0, &data(1, 20_000)).unwrap_err();
    assert!(matches!(err, SlimError::InjectedFault(_)), "{err}");
    env.oss.clear_faults();
    // Retry succeeds and restores.
    env.backup(&file, 0, &data(1, 20_000)).unwrap();
    assert_eq!(env.restore(&file, 0).unwrap(), data(1, 20_000));
}

#[test]
fn recipe_write_failure_fails_backup_but_preserves_old_versions() {
    let env = setup();
    let file = FileId::new("f");
    let v0 = data(2, 20_000);
    env.backup(&file, 0, &v0).unwrap();
    env.oss
        .inject_fault(FaultPlan::KeyPrefix("recipes/".into()));
    assert!(env.backup(&file, 1, &data(3, 20_000)).is_err());
    env.oss.clear_faults();
    // v0 untouched.
    assert_eq!(env.restore(&file, 0).unwrap(), v0);
}

#[test]
fn transient_failure_mid_backup_is_not_silent() {
    let env = setup();
    let file = FileId::new("f");
    let input = data(4, 60_000);
    // Fail the 3rd container operation only.
    env.oss.inject_fault(FaultPlan::NthOnPrefix {
        prefix: "containers/".into(),
        nth: 3,
    });
    let result = env.backup(&file, 0, &input);
    assert!(result.is_err(), "partial persistence must be reported");
    env.oss.clear_faults();
    env.backup(&file, 0, &input).unwrap();
    assert_eq!(env.restore(&file, 0).unwrap(), input);
}

#[test]
fn restore_surfaces_read_failures() {
    let env = setup();
    let file = FileId::new("f");
    let input = data(5, 30_000);
    env.backup(&file, 0, &input).unwrap();
    env.oss
        .inject_fault(FaultPlan::KeyPrefix("containers/".into()));
    assert!(env.restore(&file, 0).is_err());
    env.oss.clear_faults();
    assert_eq!(env.restore(&file, 0).unwrap(), input);
}

#[test]
fn restore_with_prefetch_surfaces_worker_failures() {
    let env = setup();
    let file = FileId::new("f");
    let input = data(6, 40_000);
    env.backup(&file, 0, &input).unwrap();
    // Fail one specific read: the error must propagate through the prefetch
    // workers to the restore caller.
    env.oss.inject_fault(FaultPlan::NthOnPrefix {
        prefix: "containers/".into(),
        nth: 2,
    });
    let chunker_opts = RestoreOptions {
        cache_mem: 64 * 1024,
        cache_disk: 256 * 1024,
        law_window: 64,
        prefetch_threads: 3,
    };
    let result =
        RestoreEngine::new(&env.storage, None).restore_file(&file, VersionId(0), &chunker_opts);
    assert!(result.is_err());
    env.oss.clear_faults();
    let (out, _) = RestoreEngine::new(&env.storage, None)
        .restore_file(&file, VersionId(0), &chunker_opts)
        .unwrap();
    assert_eq!(out, input);
}

/// An object store that fails the first `remaining` `get`s under `prefix`
/// with a retryable [`SlimError::Transient`], then passes everything
/// through — the deterministic model of a network blip during prefetch.
struct FailFirstGets {
    inner: Oss,
    prefix: String,
    remaining: std::sync::atomic::AtomicU64,
}

impl ObjectStore for FailFirstGets {
    fn put(&self, key: &str, value: bytes::Bytes) -> slim_types::Result<()> {
        self.inner.put(key, value)
    }

    fn get(&self, key: &str) -> slim_types::Result<bytes::Bytes> {
        use std::sync::atomic::Ordering;
        if key.starts_with(&self.prefix)
            && self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            return Err(SlimError::Transient("injected prefetch blip".into()));
        }
        self.inner.get(key)
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> slim_types::Result<bytes::Bytes> {
        self.inner.get_range(key, start, len)
    }

    fn delete(&self, key: &str) -> slim_types::Result<()> {
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> slim_types::Result<bool> {
        self.inner.exists(key)
    }

    fn len(&self, key: &str) -> slim_types::Result<Option<u64>> {
        self.inner.len(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
}

/// A transient blip while the prefetch workers are reading containers:
/// before the error-fidelity fix the worker's failure was rethrown as a
/// non-retryable corruption error and the whole restore failed; now the
/// retryable class falls back to one synchronous re-read per failed
/// container and the restore succeeds end to end.
#[test]
fn transient_prefetch_failure_is_absorbed_by_the_sync_fallback() {
    use std::sync::atomic::Ordering;

    let oss = Oss::in_memory();
    let flaky = Arc::new(FailFirstGets {
        inner: oss.clone(),
        prefix: "containers/".into(),
        remaining: std::sync::atomic::AtomicU64::new(0),
    });
    let storage = StorageLayer::open(flaky.clone());
    let cfg = SlimConfig::small_for_tests();
    let similar = SimilarFileIndex::new();
    let file = FileId::new("f");
    let input = data(9, 60_000);
    let chunker = FastCdcChunker::new(ChunkSpec::from_config(&cfg));
    BackupPipeline::new(&storage, &similar, &chunker, &cfg)
        .backup_file(&file, VersionId(0), &input)
        .unwrap();

    // Arm: the next container read fails transiently. The LAW window covers
    // the whole small file, so every container is scheduled with the
    // prefetcher and the failing read is issued by a worker; exactly one
    // failure keeps the synchronous fallback read itself clean.
    flaky.remaining.store(1, Ordering::SeqCst);
    let opts = RestoreOptions {
        cache_mem: 64 * 1024,
        cache_disk: 256 * 1024,
        law_window: 64,
        prefetch_threads: 3,
    };
    let (out, _) = RestoreEngine::new(&storage, None)
        .restore_file(&file, VersionId(0), &opts)
        .unwrap();
    assert_eq!(out, input, "restore must succeed despite the blip");
    assert_eq!(
        flaky.remaining.load(Ordering::SeqCst),
        0,
        "the injected failures must actually have fired"
    );
}

#[test]
fn corrupt_container_meta_detected() {
    let env = setup();
    let file = FileId::new("f");
    let input = data(7, 20_000);
    env.backup(&file, 0, &input).unwrap();
    // Flip bytes in the first container's metadata.
    let keys = env.oss.list("containers/");
    let meta_key = keys.iter().find(|k| k.ends_with("/meta")).unwrap();
    let mut buf = env.oss.get(meta_key).unwrap().to_vec();
    buf[0] ^= 0xFF;
    env.oss.put(meta_key, buf.into()).unwrap();
    let err = env.restore(&file, 0).unwrap_err();
    assert!(
        matches!(err, SlimError::Corrupt { .. }),
        "corruption must be detected, got {err}"
    );
}

// ---------------------------------------------------------------------------
// Crash consistency and transient-fault chaos (system level)
// ---------------------------------------------------------------------------

fn system_store(oss: Arc<dyn ObjectStore>) -> SlimStore {
    SlimStoreBuilder::in_memory()
        .with_object_store(oss)
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap()
}

fn sorted_keys(oss: &Oss) -> Vec<String> {
    let mut keys = oss.list("");
    keys.sort();
    keys
}

/// Kill a backup at every operation index in turn. Whatever the kill point,
/// the committed version stays restorable, no partial version becomes
/// visible, and one orphan-scrub pass returns the bucket to exactly the
/// committed key set (a second pass reclaims nothing).
#[test]
fn kill_point_sweep_commits_or_leaves_reclaimable_orphans_only() {
    let oss = Oss::in_memory();
    let file_a = FileId::new("db/a");
    let file_b = FileId::new("db/b");
    let da0 = data(80, 24_000);
    let db0 = data(81, 16_000);
    let mut da1 = da0.clone();
    da1[3_000..3_400].copy_from_slice(&data(82, 400));
    let db1 = data(83, 16_000);
    let v0_files = vec![(file_a.clone(), da0.clone()), (file_b.clone(), db0.clone())];
    let v1_files = vec![(file_a.clone(), da1.clone()), (file_b.clone(), db1.clone())];

    // Commit v0, then capture the committed key set as the baseline.
    {
        let store = system_store(Arc::new(oss.clone()));
        store.backup_version(v0_files.clone()).unwrap();
    }
    let baseline = sorted_keys(&oss);

    let mut total_orphans = 0u64;
    let mut succeeded = false;
    for kill_point in 1..=10_000u64 {
        // Fresh deployment per attempt over the same bucket: every attempt
        // starts from the identical committed state, so the backup issues
        // the identical operation sequence and `kill_point` sweeps it
        // exhaustively.
        let store = system_store(Arc::new(oss.clone()));
        oss.inject_fault(FaultPlan::NthOnPrefix {
            prefix: String::new(),
            nth: kill_point,
        });
        let result = store.backup_version(v1_files.clone());
        oss.clear_faults();
        match result {
            Ok(report) => {
                // The kill point lies past the commit point: the version is
                // durable and the sweep has covered the whole sequence.
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

/// Copy every object of a bucket (used to rewind to an identical pre-cycle
/// state between kill-point attempts).
fn bucket_snapshot(oss: &Oss) -> Vec<(String, Vec<u8>)> {
    oss.list("")
        .into_iter()
        .map(|k| {
            let v = oss.get(&k).unwrap().to_vec();
            (k, v)
        })
        .collect()
}

fn bucket_restore(base: &[(String, Vec<u8>)]) -> Oss {
    let oss = Oss::in_memory();
    for (k, v) in base {
        oss.put(k, v.clone().into()).unwrap();
    }
    oss
}

/// Kill the G-node offline cycle at every OSS operation index in turn —
/// this brute-forces every stage boundary (reverse dedup marks, container
/// rewrites, SCC moves, index relocations and flushes, deletes, journal
/// writes). After each kill, reopening the deployment replays the intent
/// journal; every version must restore byte-identically both right after
/// recovery and after the interrupted cycle is re-run to completion.
#[test]
fn gnode_cycle_kill_point_sweep_recovers_at_every_stage() {
    let file_a = FileId::new("db/a");
    let file_b = FileId::new("db/b");
    // Three versions with heavy overlap so the v2 cycle has real work:
    // duplicate chunks to reverse-deduplicate out of older containers (and
    // containers sparse enough to rewrite under the two-phase protocol).
    let da0 = data(90, 24_000);
    let db0 = data(91, 16_000);
    let mut da1 = da0.clone();
    da1[2_000..2_600].copy_from_slice(&data(92, 600));
    let mut da2 = da1.clone();
    da2[9_000..9_400].copy_from_slice(&data(93, 400));
    let versions: Vec<Vec<(FileId, Vec<u8>)>> = vec![
        vec![(file_a.clone(), da0.clone()), (file_b.clone(), db0.clone())],
        vec![(file_a.clone(), da1.clone()), (file_b.clone(), db0.clone())],
        vec![(file_a.clone(), da2.clone()), (file_b.clone(), db0.clone())],
    ];

    let pristine = Oss::in_memory();
    {
        let store = system_store(Arc::new(pristine.clone()));
        store.backup_version(versions[0].clone()).unwrap();
        store.run_gnode_cycle(VersionId(0)).unwrap();
        store.backup_version(versions[1].clone()).unwrap();
        store.run_gnode_cycle(VersionId(1)).unwrap();
        store.backup_version(versions[2].clone()).unwrap();
        // The v2 cycle is the operation sequence under the sweep.
    }
    let base = bucket_snapshot(&pristine);

    let verify_all = |store: &SlimStore| {
        for (v, files) in versions.iter().enumerate() {
            store.verify_version(VersionId(v as u64), files).unwrap();
        }
    };

    let mut consecutive_ok = 0u32;
    let mut succeeded = false;
    for kill_point in 1..=20_000u64 {
        let oss = bucket_restore(&base);
        let store = system_store(Arc::new(oss.clone()));
        oss.inject_fault(FaultPlan::NthOnPrefix {
            prefix: String::new(),
            nth: kill_point,
        });
        let result = store.run_gnode_cycle(VersionId(2));
        oss.clear_faults();
        drop(store);

        // Reopen the deployment: the builder replays the intent journal.
        let store = system_store(Arc::new(oss.clone()));
        verify_all(&store);
        if result.is_ok() {
            // Best-effort steps may absorb one injected fault and still
            // report success, so require several consecutive clean runs
            // before concluding the kill point lies past the cycle's end.
            consecutive_ok += 1;
            if consecutive_ok >= 3 {
                succeeded = true;
                break;
            }
            continue;
        }
        consecutive_ok = 0;
        // Re-running the interrupted cycle converges.
        store.run_gnode_cycle(VersionId(2)).unwrap();
        verify_all(&store);
        assert!(
            store.recover().unwrap().is_clean(),
            "kill point {kill_point}: journal must be empty after a completed cycle"
        );
    }
    assert!(succeeded, "the sweep never ran past the end of the cycle");
}

/// Kill the FIFO collection sweep (`retain_last`) at every OSS operation
/// index. Retained versions must restore byte-identically after recovery,
/// and re-running the sweep plus one orphan scrub converges to a stable
/// key set (a second scrub reclaims nothing).
#[test]
fn collect_kill_point_sweep_preserves_retained_versions() {
    let file = FileId::new("db/f");
    let mut contents = Vec::new();
    let pristine = Oss::in_memory();
    {
        let store = system_store(Arc::new(pristine.clone()));
        let mut d = data(95, 20_000);
        for v in 0..3u64 {
            contents.push(d.clone());
            store
                .backup_version(vec![(file.clone(), d.clone())])
                .unwrap();
            store.run_gnode_cycle(VersionId(v)).unwrap();
            d[4_000..4_500].copy_from_slice(&data(96 + v, 500));
        }
    }
    let base = bucket_snapshot(&pristine);

    let mut consecutive_ok = 0u32;
    let mut succeeded = false;
    for kill_point in 1..=20_000u64 {
        let oss = bucket_restore(&base);
        let store = system_store(Arc::new(oss.clone()));
        oss.inject_fault(FaultPlan::NthOnPrefix {
            prefix: String::new(),
            nth: kill_point,
        });
        let result = store.retain_last(2);
        oss.clear_faults();
        drop(store);

        let store = system_store(Arc::new(oss.clone()));
        for v in 1..3u64 {
            store
                .verify_version(
                    VersionId(v),
                    &[(file.clone(), contents[v as usize].clone())],
                )
                .unwrap();
        }
        if result.is_ok() {
            consecutive_ok += 1;
            if consecutive_ok >= 3 {
                succeeded = true;
                break;
            }
            continue;
        }
        consecutive_ok = 0;
        // Converge: finish the sweep, then scrub anything the killed pass
        // unlinked but did not delete.
        store.retain_last(2).unwrap();
        assert_eq!(store.versions(), vec![VersionId(1), VersionId(2)]);
        store.scrub_orphans().unwrap();
        let again = store.scrub_orphans().unwrap();
        assert_eq!(
            again.objects_reclaimed(),
            0,
            "kill point {kill_point}: scrub must be idempotent"
        );
        for v in 1..3u64 {
            store
                .verify_version(
                    VersionId(v),
                    &[(file.clone(), contents[v as usize].clone())],
                )
                .unwrap();
        }
    }
    assert!(succeeded, "the sweep never ran past the end of the collect");
}

/// Bit-rot injected into every read under `containers/` while the G-node
/// cycle runs: the CRC framing must detect the mangled payloads and abort
/// the cycle with a corruption error (never act on bad bytes); once the
/// fault clears, recovery replays the journal and the cycle completes.
#[test]
fn corrupt_read_during_cycle_is_detected_and_recovery_converges() {
    let oss = Oss::in_memory();
    let file = FileId::new("db/f");
    let v0 = data(97, 24_000);
    let mut v1 = v0.clone();
    v1[1_000..1_500].copy_from_slice(&data(98, 500));
    let store = system_store(Arc::new(oss.clone()));
    store
        .backup_version(vec![(file.clone(), v0.clone())])
        .unwrap();
    store.run_gnode_cycle(VersionId(0)).unwrap();
    store
        .backup_version(vec![(file.clone(), v1.clone())])
        .unwrap();

    oss.inject_fault(FaultPlan::CorruptRead {
        prefix: "containers/".into(),
        kind: CorruptionKind::BitFlip,
        seed: 0xB17_F11,
    });
    let err = store.run_gnode_cycle(VersionId(1)).unwrap_err();
    assert!(
        matches!(err, SlimError::Corrupt { .. }),
        "mangled reads must surface as corruption, got {err}"
    );
    oss.clear_faults();

    // Reopen (journal replay) and finish the cycle on clean reads.
    drop(store);
    let store = system_store(Arc::new(oss.clone()));
    store.run_gnode_cycle(VersionId(1)).unwrap();
    store
        .verify_version(VersionId(0), &[(file.clone(), v0)])
        .unwrap();
    store
        .verify_version(VersionId(1), &[(file.clone(), v1)])
        .unwrap();
    // Nothing was durably damaged: a full checksum sweep quarantines zero.
    let report = store.verify_checksums().unwrap();
    assert_eq!(report.containers_quarantined, 0);
}

/// A seeded probabilistic transient-fault schedule (p = 0.3 on every OSS
/// operation) absorbed by the retrying store: every backup commits, every
/// committed version restores byte-identically, retry counters surface in
/// the per-backup metrics snapshot, and nothing gives up.
#[test]
fn chaos_transient_schedule_preserves_every_committed_version() {
    let oss = Oss::in_memory();
    let retrying = RetryingStore::new(Arc::new(oss.clone()), RetryPolicy::no_delay(16));
    let store = system_store(Arc::new(retrying.clone()));
    oss.inject_fault(FaultPlan::TransientProb {
        prefix: String::new(),
        prob: 0.3,
        seed: 0xC4A0_55E5,
    });

    let file_a = FileId::new("db/a");
    let file_b = FileId::new("db/b");
    let mut da = data(50, 24_000);
    let db = data(51, 16_000);
    let mut history = Vec::new();
    for round in 0..3u64 {
        let report = store
            .backup_version(vec![
                (file_a.clone(), da.clone()),
                (file_b.clone(), db.clone()),
            ])
            .unwrap();
        assert_eq!(report.version, VersionId(round));
        assert!(
            report.telemetry.counters.contains_key("retry.retries"),
            "retrying store keeps counters"
        );
        assert_eq!(
            report.telemetry.counter("retry.giveups"),
            0,
            "16 attempts must outlast p=0.3"
        );
        history.push(da.clone());
        // Every committed version restores byte-identically while the fault
        // schedule stays armed.
        for (v, expected) in history.iter().enumerate() {
            store
                .verify_version(
                    VersionId(v as u64),
                    &[
                        (file_a.clone(), expected.clone()),
                        (file_b.clone(), db.clone()),
                    ],
                )
                .unwrap();
        }
        da[1_000..1_800].copy_from_slice(&data(60 + round, 800));
    }

    let snap = store.oss().metrics_snapshot().unwrap();
    assert!(snap.retries > 0, "the schedule must actually have fired");
    assert_eq!(snap.giveups, 0);
    assert!(snap.injected_faults > 0);
    assert_eq!(retrying.retry_metrics().giveups(), 0);
}

/// Throttling plus injected latency end to end: the retrying store rides
/// out the 429s, the latency plan charges injected delay into the metrics,
/// and the data path stays byte-identical.
#[test]
fn throttle_and_latency_are_absorbed_by_the_retrying_store() {
    let oss = Oss::in_memory();
    oss.inject_fault(FaultPlan::Throttle { every_nth: 5 });
    oss.inject_fault_also(FaultPlan::Latency {
        prefix: "recipes/".into(),
        delay: Duration::from_millis(1),
    });
    let retrying = RetryingStore::new(Arc::new(oss.clone()), RetryPolicy::no_delay(10));
    let store = system_store(Arc::new(retrying));
    let file = FileId::new("f");
    let input = data(70, 30_000);
    store
        .backup_version(vec![(file.clone(), input.clone())])
        .unwrap();
    let (bytes, _) = store.restore_file(&file, VersionId(0)).unwrap();
    assert_eq!(bytes, input);
    let snap = store.oss().metrics_snapshot().unwrap();
    assert!(snap.retries > 0, "throttled operations were retried");
    assert_eq!(snap.giveups, 0);
    assert!(snap.injected_delay > Duration::ZERO, "latency plan charged");
}
