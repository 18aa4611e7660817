//! System tests of the multi-tenant request plane (`slim-frontend`): the
//! tenant-isolation property (one tenant's flood cannot starve another
//! tenant's restores), priority classes under load (maintenance is
//! deprioritized while foreground p95 stays bounded), seeded open-loop
//! overload (arrival rate > service rate sheds with `Overloaded` instead
//! of queueing unboundedly), drain-on-shutdown, byte-identical equivalence
//! with the direct `SlimStore` path, seeded transient-fault chaos through
//! the frontend, and a kill-point sweep over a frontend-submitted G-node
//! cycle.

use std::sync::Arc;
use std::time::Duration;

use slim_frontend::{FrontendBuilder, FrontendConfig, ManualClock, Request, TenantPolicy};
use slim_oss::rocks::RocksConfig;
use slim_oss::{FaultPlan, ObjectStore, Oss, RetryPolicy, RetryingStore};
use slim_types::rng::bytes as data;
use slim_types::{FileId, SlimConfig, SlimError, VersionId};
use slim_workload::PoissonArrivals;
use slimstore::{SlimStoreBuilder, TenantStoreManager};

fn manager_over(base: Arc<dyn ObjectStore>) -> Arc<TenantStoreManager> {
    Arc::new(
        TenantStoreManager::new(base)
            .with_config(SlimConfig::small_for_tests())
            .with_rocks_config(RocksConfig::small_for_tests()),
    )
}

fn manager() -> Arc<TenantStoreManager> {
    manager_over(Arc::new(Oss::in_memory()))
}

fn backup_req(file: &str, bytes: Vec<u8>) -> Request {
    Request::Backup {
        files: vec![(FileId::new(file), bytes)],
        jobs: 1,
    }
}

/// One tenant floods the (single-worker) frontend with queued backups;
/// another tenant's restores — a higher priority class — jump the queue
/// and complete byte-identically while the flood is still pending.
#[test]
fn tenant_flood_cannot_starve_another_tenants_restores() {
    let fe = FrontendBuilder::new(manager())
        .with_config(FrontendConfig::small_for_tests().with_workers(1))
        .start()
        .unwrap();
    // Victim's data goes in first, quietly.
    let payload = data(1, 48_000);
    let version = fe
        .submit("victim", backup_req("db/v", payload.clone()))
        .unwrap()
        .wait()
        .unwrap()
        .into_backup()
        .unwrap()
        .version;

    // The flood: 40 queued backups from a noisy neighbour.
    let flood: Vec<_> = (0..40u64)
        .map(|i| {
            fe.submit(
                "noisy",
                backup_req(&format!("f{i:02}"), data(100 + i, 64_000)),
            )
            .unwrap()
        })
        .collect();
    // The victim's restores arrive *after* the flood is queued.
    let restores: Vec<_> = (0..3)
        .map(|_| {
            fe.submit(
                "victim",
                Request::RestoreFile {
                    file: FileId::new("db/v"),
                    version,
                },
            )
            .unwrap()
        })
        .collect();
    for ticket in restores {
        let (bytes, _) = ticket.wait().unwrap().into_file().unwrap();
        assert_eq!(bytes, payload, "restore is byte-identical under flood");
    }
    // Strict priority: the flood is still pending when the restores are
    // done — the victim never waited behind the whole backlog.
    let stats = fe.stats();
    assert!(
        stats.queued + stats.inflight > 0,
        "flood should still be pending, got {stats:?}"
    );
    for ticket in flood {
        ticket.wait().unwrap().into_backup().unwrap();
    }
    fe.shutdown();
}

/// Maintenance queued ahead of foreground work is deprioritized: queued
/// restores overtake queued G-node cycles, and the restore p95 stays below
/// the maintenance p95 (maintenance soaks up the queueing delay).
#[test]
fn maintenance_is_deprioritized_and_foreground_p95_stays_bounded() {
    let fe = FrontendBuilder::new(manager())
        .with_config(FrontendConfig::small_for_tests().with_workers(1))
        .start()
        .unwrap();
    let payload = data(2, 48_000);
    let version = fe
        .submit("fg", backup_req("db/f", payload.clone()))
        .unwrap()
        .wait()
        .unwrap()
        .into_backup()
        .unwrap()
        .version;
    let maint_version = fe
        .submit("mt", backup_req("db/m", data(3, 48_000)))
        .unwrap()
        .wait()
        .unwrap()
        .into_backup()
        .unwrap()
        .version;

    // 16 maintenance cycles queued first, 4 restores second.
    let maints: Vec<_> = (0..16)
        .map(|_| {
            fe.submit(
                "mt",
                Request::GNodeCycle {
                    version: maint_version,
                },
            )
            .unwrap()
        })
        .collect();
    let restores: Vec<_> = (0..4)
        .map(|_| {
            fe.submit(
                "fg",
                Request::RestoreFile {
                    file: FileId::new("db/f"),
                    version,
                },
            )
            .unwrap()
        })
        .collect();
    for ticket in restores {
        let (bytes, _) = ticket.wait().unwrap().into_file().unwrap();
        assert_eq!(bytes, payload);
    }
    // Foreground finished while maintenance still has a backlog.
    let snap = fe.telemetry_snapshot();
    let maint_done = snap
        .histogram("frontend.latency_ns.maintenance")
        .map_or(0, |h| h.count);
    assert!(
        maint_done < 16,
        "all {maint_done} maintenance cycles ran before the restores finished"
    );
    for ticket in maints {
        ticket.wait().unwrap().into_maintenance().unwrap();
    }
    let snap = fe.telemetry_snapshot();
    let restore_p95 = snap
        .histogram("frontend.latency_ns.restore")
        .expect("restores recorded")
        .p95();
    let maint_p95 = snap
        .histogram("frontend.latency_ns.maintenance")
        .expect("maintenance recorded")
        .p95();
    assert!(
        restore_p95 < maint_p95,
        "restore p95 {restore_p95}ns should undercut deprioritized maintenance p95 {maint_p95}ns"
    );
    fe.shutdown();
}

/// A seeded open-loop arrival process offering far more than the service
/// rate: the bounded queue sheds the excess with `Overloaded` (retryable)
/// instead of queueing unboundedly, the queue depth honours its bound, and
/// every *admitted* request completes.
#[test]
fn seeded_overload_sheds_with_overloaded_instead_of_queueing_unboundedly() {
    let capacity = 8usize;
    let fe = FrontendBuilder::new(manager())
        .with_config(
            FrontendConfig::small_for_tests()
                .with_workers(1)
                .with_default_policy(TenantPolicy::default().with_queue_capacity(capacity)),
        )
        .start()
        .unwrap();
    // 120 backup arrivals from a seeded Poisson process — the timestamps
    // order the offered load; submission is open-loop (never waits).
    let arrivals = PoissonArrivals::new(500.0, 0xF00D).take(120);
    let mut admitted = Vec::new();
    let mut shed = 0u32;
    let mut max_queued = 0usize;
    for (i, _when) in arrivals.enumerate() {
        match fe.submit(
            "burst",
            backup_req(&format!("f{i:03}"), data(i as u64, 32_000)),
        ) {
            Ok(ticket) => admitted.push(ticket),
            Err(SlimError::Overloaded(msg)) => {
                assert!(msg.contains("queue full"), "{msg}");
                assert!(SlimError::Overloaded(msg).is_retryable());
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
        max_queued = max_queued.max(fe.stats().queued);
    }
    assert!(shed > 0, "offered 120 at capacity {capacity}: must shed");
    assert!(!admitted.is_empty(), "some requests must be admitted");
    assert!(
        max_queued <= capacity,
        "queue depth {max_queued} exceeded its bound {capacity}"
    );
    // Every admitted request completes once the burst subsides.
    for ticket in admitted {
        ticket.wait().unwrap().into_backup().unwrap();
    }
    let snap = fe.telemetry_snapshot();
    assert_eq!(snap.counter("frontend.shed.queue_full"), u64::from(shed));
    assert_eq!(
        snap.counter("frontend.admitted"),
        snap.counter("frontend.completed")
    );
    fe.shutdown();
}

/// Token-bucket rate limiting on a manual clock replaying seeded Poisson
/// arrival timestamps: the limited tenant sheds deterministically, the
/// unlimited tenant is untouched. Admission decisions depend only on the
/// virtual clock, so the outcome is exactly reproducible.
#[test]
fn rate_limited_tenant_sheds_deterministically_unlimited_tenant_unaffected() {
    let clock = Arc::new(ManualClock::new());
    let fe = FrontendBuilder::new(manager())
        .with_config(FrontendConfig::small_for_tests())
        .with_clock(clock.clone())
        .with_tenant_policy("limited", TenantPolicy::default().with_rate(20.0, 4.0))
        .start()
        .unwrap();
    let mut outcomes = Vec::new();
    // ~80/s offered against a 20/s limit (burst 4).
    for when in PoissonArrivals::new(80.0, 0xBEEF).take_until(Duration::from_secs(1)) {
        clock.set(when);
        let limited = fe.submit("limited", backup_req("l", data(9, 2_000)));
        let unlimited = fe.submit("unlimited", backup_req("u", data(9, 2_000)));
        assert!(unlimited.is_ok(), "unlimited tenant must never be shed");
        outcomes.push(match limited {
            Ok(t) => {
                t.wait().unwrap().into_backup().unwrap();
                true
            }
            Err(SlimError::Overloaded(msg)) => {
                assert!(msg.contains("rate limit"), "{msg}");
                false
            }
            Err(other) => panic!("unexpected error: {other}"),
        });
        unlimited.unwrap().wait().unwrap().into_backup().unwrap();
    }
    let admitted = outcomes.iter().filter(|ok| **ok).count();
    let total = outcomes.len();
    assert!(
        admitted < total,
        "offering 4x the rate limit must shed some of {total}"
    );
    // Burst 4 + ~20 refilled over the 1s window, with slack for the
    // exact seeded arrival pattern.
    assert!(
        (10..=34).contains(&admitted),
        "admitted {admitted} of {total}, expected ~24"
    );
    let snap = fe.telemetry_snapshot();
    assert_eq!(
        snap.counter("frontend.shed.rate_limit"),
        (total - admitted) as u64
    );
    fe.shutdown();
}

/// Drain-on-shutdown: everything admitted before the drain completes (and
/// stays restorable), everything submitted after is refused retryably.
#[test]
fn shutdown_drains_admitted_work_and_refuses_new_work() {
    let fe = FrontendBuilder::new(manager())
        .with_config(FrontendConfig::small_for_tests().with_workers(2))
        .start()
        .unwrap();
    let tickets: Vec<_> = (0..10u64)
        .map(|i| {
            fe.submit("acme", backup_req(&format!("f{i}"), data(i, 24_000)))
                .unwrap()
        })
        .collect();
    fe.shutdown();
    // Every admitted backup committed a version before the pool stopped.
    let mut versions = Vec::new();
    for ticket in tickets {
        assert!(ticket.is_done(), "drained frontend left a ticket pending");
        versions.push(ticket.wait().unwrap().into_backup().unwrap().version);
    }
    versions.sort();
    assert_eq!(versions, (0..10).map(VersionId).collect::<Vec<_>>());
    match fe.submit("acme", backup_req("late", data(99, 1_000))) {
        Err(err @ SlimError::Overloaded(_)) => assert!(err.is_retryable()),
        other => panic!("expected Overloaded after shutdown, got {other:?}"),
    }
    // The deployment itself is untouched by the drain: direct reads work.
    let store = fe.manager().get("acme").expect("deployment built");
    let (bytes, _) = store
        .restore_file(&FileId::new("f3"), VersionId(3))
        .unwrap();
    assert_eq!(bytes, data(3, 24_000));
}

/// The frontend path is byte-identical to the direct `SlimStore` path:
/// same files, same chunking config — the restored bytes (and the stored
/// version history) agree.
#[test]
fn frontend_path_matches_direct_store_path_byte_for_byte() {
    let files: Vec<(FileId, Vec<u8>)> = (0..4u64)
        .map(|i| (FileId::new(format!("db/f{i}")), data(40 + i, 30_000)))
        .collect();

    // Direct path.
    let direct = SlimStoreBuilder::in_memory()
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap();
    let dv = direct.backup_version(files.clone()).unwrap().version;

    // Frontend path.
    let fe = FrontendBuilder::new(manager())
        .with_config(FrontendConfig::small_for_tests())
        .start()
        .unwrap();
    let fv = fe
        .submit(
            "acme",
            Request::Backup {
                files: files.clone(),
                jobs: 2,
            },
        )
        .unwrap()
        .wait()
        .unwrap()
        .into_backup()
        .unwrap()
        .version;
    assert_eq!(dv, fv);

    for (file, expected) in &files {
        let (direct_bytes, _) = direct.restore_file(file, dv).unwrap();
        let (frontend_bytes, _) = fe
            .submit(
                "acme",
                Request::RestoreFile {
                    file: file.clone(),
                    version: fv,
                },
            )
            .unwrap()
            .wait()
            .unwrap()
            .into_file()
            .unwrap();
        assert_eq!(&direct_bytes, expected);
        assert_eq!(&frontend_bytes, expected);
    }
    fe.shutdown();
}

/// Seeded transient-fault chaos through the frontend: a retrying store
/// under the tenant manager absorbs a p=0.25 fault schedule; every
/// submitted request completes and every version restores byte-identically.
#[test]
fn chaos_transient_faults_through_the_frontend_preserve_every_version() {
    let oss = Oss::in_memory();
    let retrying = RetryingStore::new(Arc::new(oss.clone()), RetryPolicy::no_delay(16));
    let fe = FrontendBuilder::new(manager_over(Arc::new(retrying)))
        .with_config(FrontendConfig::small_for_tests().with_workers(2))
        .start()
        .unwrap();
    oss.inject_fault(FaultPlan::TransientProb {
        prefix: String::new(),
        prob: 0.25,
        seed: 0x51AB_1E5,
    });
    let mut history = Vec::new();
    for round in 0..3u64 {
        let payload = data(60 + round, 36_000);
        let version = fe
            .submit("acme", backup_req("db/f", payload.clone()))
            .unwrap()
            .wait()
            .unwrap()
            .into_backup()
            .unwrap()
            .version;
        assert_eq!(version, VersionId(round));
        history.push(payload);
        for (v, expected) in history.iter().enumerate() {
            let (bytes, _) = fe
                .submit(
                    "acme",
                    Request::RestoreFile {
                        file: FileId::new("db/f"),
                        version: VersionId(v as u64),
                    },
                )
                .unwrap()
                .wait()
                .unwrap()
                .into_file()
                .unwrap();
            assert_eq!(&bytes, expected, "v{v} under transient chaos");
        }
    }
    oss.clear_faults();
    fe.shutdown();
}

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

/// Kill-point sweep over a frontend-submitted maintenance cycle: whatever
/// OSS operation dies (during the tenant deployment build *or* the cycle
/// itself), the error surfaces through the ticket, a reopened deployment
/// recovers via the intent journal, every version stays byte-identical
/// through the frontend, and re-running the cycle converges.
#[test]
fn frontend_maintenance_kill_point_sweep_recovers_at_every_stage() {
    let file = FileId::new("db/a");
    let v0 = data(80, 20_000);
    let mut v1 = v0.clone();
    v1[2_000..2_600].copy_from_slice(&data(81, 600));

    // Pristine bucket: two backed-up versions, cycle for v1 NOT yet run.
    let pristine = Oss::in_memory();
    {
        let fe = FrontendBuilder::new(manager_over(Arc::new(pristine.clone())))
            .with_config(FrontendConfig::small_for_tests().with_workers(1))
            .start()
            .unwrap();
        for payload in [&v0, &v1] {
            fe.submit("acme", backup_req("db/a", payload.clone()))
                .unwrap()
                .wait()
                .unwrap()
                .into_backup()
                .unwrap();
        }
        fe.shutdown();
    }
    let base = bucket_snapshot(&pristine);

    let verify_through = |oss: &Oss| {
        let fe = FrontendBuilder::new(manager_over(Arc::new(oss.clone())))
            .with_config(FrontendConfig::small_for_tests().with_workers(1))
            .start()
            .unwrap();
        for (v, expected) in [(0u64, &v0), (1u64, &v1)] {
            let (bytes, _) = fe
                .submit(
                    "acme",
                    Request::RestoreFile {
                        file: file.clone(),
                        version: VersionId(v),
                    },
                )
                .unwrap()
                .wait()
                .unwrap()
                .into_file()
                .unwrap();
            assert_eq!(&bytes, expected, "v{v} after kill");
        }
        fe.shutdown();
    };

    let mut consecutive_ok = 0u32;
    let mut succeeded = false;
    let mut kills = 0u32;
    for kill_point in 1..=20_000u64 {
        let oss = bucket_restore(&base);
        oss.inject_fault(FaultPlan::NthOnPrefix {
            prefix: String::new(),
            nth: kill_point,
        });
        // The kill can land inside the deployment build (journal replay,
        // index load) or inside the cycle — both must be survivable.
        let result = {
            let fe = FrontendBuilder::new(manager_over(Arc::new(oss.clone())))
                .with_config(FrontendConfig::small_for_tests().with_workers(1))
                .start()
                .unwrap();
            let outcome = match fe.submit(
                "acme",
                Request::GNodeCycle {
                    version: VersionId(1),
                },
            ) {
                Ok(ticket) => ticket.wait().map(|_| ()),
                Err(err) => Err(err),
            };
            fe.shutdown();
            outcome
        };
        oss.clear_faults();

        verify_through(&oss);
        if result.is_ok() {
            // Best-effort steps can absorb one fault and still succeed, so
            // require several consecutive clean runs before stopping.
            consecutive_ok += 1;
            if consecutive_ok >= 3 {
                succeeded = true;
                break;
            }
            continue;
        }
        consecutive_ok = 0;
        kills += 1;
        // Re-running the interrupted cycle through a fresh frontend
        // converges; the data stays byte-identical.
        let fe = FrontendBuilder::new(manager_over(Arc::new(oss.clone())))
            .with_config(FrontendConfig::small_for_tests().with_workers(1))
            .start()
            .unwrap();
        fe.submit(
            "acme",
            Request::GNodeCycle {
                version: VersionId(1),
            },
        )
        .unwrap()
        .wait()
        .unwrap()
        .into_maintenance()
        .unwrap();
        fe.shutdown();
        verify_through(&oss);
    }
    assert!(succeeded, "sweep never reached the end of the cycle");
    assert!(kills > 0, "sweep must actually kill at least one run");
}
