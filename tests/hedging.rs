//! Gray-failure resilience chaos suite: hedged reads, circuit breakers,
//! endpoint health routing, and end-to-end deadline propagation.
//!
//! Everything here runs on seeded fault plans, so failures replay. The
//! invariants under test:
//!
//! 1. hedging never changes *data* — every byte a hedged read returns is a
//!    byte the store holds, under every fault plan;
//! 2. circuit-breaker transitions are deterministic functions of the
//!    outcome sequence and the seed;
//! 3. an expired deadline short-circuits before a single further OSS call
//!    is issued (asserted via `oss.*` request counters), at the wrapper,
//!    the retry layer, and the full builder stack;
//! 4. with one straggling endpoint, hedged+routed reads are byte-identical
//!    and measurably faster at the tail than the unrouted baseline.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use slim_oss::{
    BreakerPolicy, BreakerStage, CircuitBreaker, FaultPlan, HedgePolicy, HedgedStore, ObjectStore,
    Oss, RetryPolicy, RetryingStore,
};
use slim_types::rng::bytes as data;
use slim_types::VersionId;
use slim_types::{Deadline, FileId, SlimConfig, SlimError};
use slimstore::SlimStoreBuilder;
use slimstore_repro::chunking::{ChunkSpec, FastCdcChunker};
use slimstore_repro::index::SimilarFileIndex;
use slimstore_repro::lnode::backup::BackupPipeline;
use slimstore_repro::lnode::restore::{RestoreEngine, RestoreOptions};
use slimstore_repro::lnode::StorageLayer;

/// A 2-endpoint store warmed so the hedging plane is live from the first
/// faulted read (low observation bar, no activation floor).
fn eager_policy() -> HedgePolicy {
    HedgePolicy {
        min_observations: 4,
        activation_floor: Duration::ZERO,
        min_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(2),
        ..HedgePolicy::for_endpoints(2)
    }
}

fn hedged_over(oss: &Oss, policy: HedgePolicy) -> HedgedStore {
    HedgedStore::new(Arc::new(oss.clone()), policy)
}

/// Seeded fault plans a read plane must survive without data divergence:
/// heavy-tail latency on one endpoint, endpoint-scoped transients, and
/// store-wide probabilistic transients.
fn chaos_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::LatencyPareto {
            prefix: String::new(),
            endpoint: Some(0),
            scale: Duration::from_millis(1),
            shape: 1.2,
            cap: Duration::from_millis(6),
            seed: 21,
        },
        FaultPlan::EndpointTransient {
            endpoint: 0,
            prob: 0.7,
            seed: 22,
        },
        FaultPlan::TransientProb {
            prefix: String::new(),
            prob: 0.25,
            seed: 23,
        },
    ]
}

#[test]
fn hedged_reads_never_diverge_from_stored_bytes() {
    for (i, plan) in chaos_plans().into_iter().enumerate() {
        let oss = Oss::in_memory();
        oss.set_endpoints(2);
        let expected: Vec<(String, Vec<u8>)> = (0..8)
            .map(|k| (format!("obj/{k}"), data(100 + k, 2048 + k as usize * 17)))
            .collect();
        for (key, bytes) in &expected {
            oss.put(key, Bytes::from(bytes.clone())).unwrap();
        }
        let store = hedged_over(&oss, eager_policy());
        // Warm the delay pool on clean reads, then arm the plan.
        for (key, _) in &expected {
            store.get(key).unwrap();
        }
        oss.inject_fault(plan);
        let mut oks = 0u32;
        for round in 0..6 {
            for (k, (key, bytes)) in expected.iter().enumerate() {
                match store.get(key) {
                    Ok(got) => {
                        oks += 1;
                        assert_eq!(
                            got.as_ref(),
                            bytes.as_slice(),
                            "plan {i}, round {round}, key {k}: bytes diverged"
                        );
                    }
                    // Both endpoints can fail under store-wide plans; an
                    // error is acceptable, wrong bytes never are.
                    Err(e) => assert!(
                        matches!(
                            e,
                            SlimError::Transient(_)
                                | SlimError::Throttled(_)
                                | SlimError::Timeout { .. }
                                | SlimError::CircuitOpen(_)
                        ),
                        "plan {i}: unexpected error class: {e}"
                    ),
                }
            }
            // Batch form under the same plan.
            let keys: Vec<String> = expected.iter().map(|(k, _)| k.clone()).collect();
            for (j, result) in store.get_many(&keys).into_iter().enumerate() {
                if let Ok(got) = result {
                    assert_eq!(got.as_ref(), expected[j].1.as_slice(), "plan {i} batch");
                }
            }
        }
        assert!(oks > 0, "plan {i}: some reads must get through");
    }
}

#[test]
fn breaker_transitions_replay_deterministically() {
    // The breaker is a pure function of (policy, outcome sequence): two
    // instances fed the same seeded outcome stream walk the same stages.
    let mut rng = slim_types::rng::Rng::seed_from_u64(77);
    let outcomes: Vec<bool> = (0..400).map(|_| rng.gen_bool(0.55)).collect();
    let run = |seed: u64| -> Vec<(bool, BreakerStage)> {
        let br = CircuitBreaker::new(
            1,
            BreakerPolicy {
                failure_threshold: 3,
                open_ops: 5,
                probe_prob: 0.4,
                success_to_close: 2,
                seed,
            },
        );
        outcomes
            .iter()
            .map(|&ok| {
                let admitted = br.admits(0);
                if admitted {
                    br.record(0, ok);
                }
                (admitted, br.stage(0))
            })
            .collect()
    };
    let a = run(5);
    assert_eq!(a, run(5), "same seed, same trajectory");
    assert_ne!(a, run(6), "probe admission follows the seed");
    assert!(
        a.iter().any(|(_, s)| *s == BreakerStage::Open)
            && a.iter().any(|(_, s)| *s == BreakerStage::HalfOpen)
            && a.iter().any(|(_, s)| *s == BreakerStage::Closed),
        "the outcome stream exercises all three stages"
    );
}

#[test]
fn expired_deadline_is_a_hard_wall_for_the_wrapper_and_retry_layer() {
    let oss = Oss::in_memory();
    oss.set_endpoints(2);
    oss.put("k", Bytes::from_static(b"v")).unwrap();
    let hedged = hedged_over(&oss, eager_policy());
    let retrying = RetryingStore::new(Arc::new(oss.clone()), RetryPolicy::no_delay(8));
    let stacked = RetryingStore::new(
        Arc::new(hedged_over(&oss, eager_policy())),
        RetryPolicy::no_delay(8),
    );

    let before = oss.metrics().snapshot();
    Deadline::within(Duration::ZERO).scope(|| {
        assert!(matches!(hedged.get("k"), Err(SlimError::Timeout { .. })));
        assert!(matches!(retrying.get("k"), Err(SlimError::Timeout { .. })));
        assert!(matches!(stacked.get("k"), Err(SlimError::Timeout { .. })));
        assert!(matches!(
            hedged.get_many(&["k".to_string()])[0],
            Err(SlimError::Timeout { .. })
        ));
        assert!(matches!(hedged.len("k"), Err(SlimError::Timeout { .. })));
        assert!(matches!(
            hedged.put("k2", Bytes::new()),
            Err(SlimError::Timeout { .. })
        ));
    });
    let after = oss.metrics().snapshot();
    assert_eq!(after.get_requests, before.get_requests, "no GET was issued");
    assert_eq!(after.put_requests, before.put_requests, "no PUT was issued");

    // The wall lifts with the scope: the same handles serve again.
    assert_eq!(hedged.get("k").unwrap(), Bytes::from_static(b"v"));
    assert_eq!(retrying.get("k").unwrap(), Bytes::from_static(b"v"));
}

#[test]
fn expired_deadline_short_circuits_the_full_builder_stack() {
    // Full stack: builder-wired Oss (2 endpoints) → HedgedStore → storage/
    // restore planes, telemetry on. A request whose deadline is already
    // spent must fail without growing any oss.* request counter.
    let store = SlimStoreBuilder::in_memory()
        .with_config(SlimConfig::small_for_tests())
        .build()
        .unwrap();
    let file = FileId::new("f");
    let payload = data(7, 60_000);
    store
        .backup_version(vec![(file.clone(), payload.clone())])
        .unwrap();
    assert_eq!(store.restore_file(&file, VersionId(0)).unwrap().0, payload);

    let reads_before = store.telemetry_snapshot().counter("oss.get_requests");
    let outcome =
        Deadline::within(Duration::ZERO).scope(|| store.restore_file(&file, VersionId(0)));
    assert!(
        matches!(outcome, Err(SlimError::Timeout { .. })),
        "expired deadline must refuse the restore: {outcome:?}"
    );
    let snap = store.telemetry_snapshot();
    assert_eq!(
        snap.counter("oss.get_requests"),
        reads_before,
        "not one further OSS read was issued after expiry"
    );
    assert!(
        snap.counter("oss.hedge.deadline_refused") > 0,
        "the refusal is visible on the hedge counters"
    );
    // And the store still works once the deadline scope is gone.
    assert_eq!(store.restore_file(&file, VersionId(0)).unwrap().0, payload);
}

/// Run `reads` single gets through `store` and return the observed p95 in
/// nanoseconds, measured at the caller (not trusting internal histograms).
fn measured_p95(store: &dyn ObjectStore, keys: &[String], reads: usize) -> u64 {
    let mut samples = Vec::with_capacity(reads);
    for i in 0..reads {
        let key = &keys[i % keys.len()];
        let t = std::time::Instant::now();
        let got = store.get(key).unwrap();
        samples.push(t.elapsed().as_nanos() as u64);
        assert!(!got.is_empty());
    }
    samples.sort_unstable();
    samples[(samples.len() * 95) / 100 - 1]
}

fn straggler_setup(hedged: bool) -> (Oss, Arc<dyn ObjectStore>, Vec<String>) {
    let oss = Oss::in_memory();
    oss.set_endpoints(2);
    let keys: Vec<String> = (0..8).map(|k| format!("c/{k}")).collect();
    for (k, key) in keys.iter().enumerate() {
        oss.put(key, Bytes::from(data(300 + k as u64, 4096)))
            .unwrap();
    }
    // Endpoint 0 staggers with a heavy tail; endpoint 1 stays healthy. The
    // identical plan/seed is armed in both setups.
    oss.inject_fault(FaultPlan::LatencyPareto {
        prefix: String::new(),
        endpoint: Some(0),
        scale: Duration::from_millis(2),
        shape: 1.5,
        cap: Duration::from_millis(10),
        seed: 31,
    });
    let store: Arc<dyn ObjectStore> = if hedged {
        Arc::new(hedged_over(&oss, eager_policy()))
    } else {
        Arc::new(oss.clone())
    };
    (oss, store, keys)
}

#[test]
fn straggling_endpoint_p95_improves_with_the_resilience_plane() {
    // Baseline: round-robin over both endpoints, so half the reads eat the
    // ≥2ms straggler delay — p95 is pinned at the injected tail.
    let (_oss_a, baseline, keys) = straggler_setup(false);
    let p95_baseline = measured_p95(baseline.as_ref(), &keys, 60);
    // Resilient: health routing learns endpoint 0 is sick after the first
    // slow reads and hedging covers the stragglers in between.
    let (_oss_b, resilient, keys) = straggler_setup(true);
    let p95_resilient = measured_p95(resilient.as_ref(), &keys, 60);
    assert!(
        p95_baseline >= Duration::from_millis(2).as_nanos() as u64,
        "baseline must actually observe the straggler: p95 {p95_baseline}ns"
    );
    assert!(
        p95_resilient < p95_baseline / 2,
        "resilience plane must at least halve p95: {p95_resilient}ns vs {p95_baseline}ns"
    );
}

#[test]
fn straggler_restore_is_byte_identical_end_to_end() {
    // Full backup/restore through a hedged storage layer with one endpoint
    // straggling the whole time: every restored byte must match.
    let oss = Oss::in_memory();
    oss.set_endpoints(2);
    oss.inject_fault(FaultPlan::LatencyPareto {
        prefix: String::new(),
        endpoint: Some(0),
        scale: Duration::from_micros(300),
        shape: 1.5,
        cap: Duration::from_millis(3),
        seed: 41,
    });
    let storage = StorageLayer::open(Arc::new(hedged_over(&oss, eager_policy())));
    let similar = SimilarFileIndex::new();
    let cfg = SlimConfig::small_for_tests();
    let chunker = FastCdcChunker::new(ChunkSpec::from_config(&cfg));
    let file = FileId::new("f");
    let versions: Vec<Vec<u8>> = (0..3).map(|v| data(500 + v, 80_000)).collect();
    for (v, bytes) in versions.iter().enumerate() {
        BackupPipeline::new(&storage, &similar, &chunker, &cfg)
            .backup_file(&file, VersionId(v as u64), bytes)
            .unwrap();
    }
    for (v, bytes) in versions.iter().enumerate() {
        let (restored, _) = RestoreEngine::new(&storage, None)
            .restore_file(
                &file,
                VersionId(v as u64),
                &RestoreOptions::from_config(&cfg),
            )
            .unwrap();
        assert_eq!(&restored, bytes, "version {v} diverged under the straggler");
    }
}

#[test]
fn endpoint_transient_decisions_replay_with_pinning() {
    // Store-level determinism: with the thread pinned, the same seeded
    // endpoint plan yields the same per-op outcome sequence on a fresh
    // store — the property every other test in this file leans on.
    let run = || -> Vec<bool> {
        let oss = Oss::in_memory();
        oss.set_endpoints(2);
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.inject_fault(FaultPlan::EndpointTransient {
            endpoint: 0,
            prob: 0.5,
            seed: 51,
        });
        let _pin = slim_oss::endpoint::pin(0);
        (0..64).map(|_| oss.get("k").is_ok()).collect()
    };
    let a = run();
    assert_eq!(a, run(), "seeded plan replays exactly");
    assert!(a.iter().any(|x| *x) && a.iter().any(|x| !*x));
}

#[test]
fn builder_wired_retry_stores_use_distinct_jitter_salts() {
    // Two deployments in one process must not back off in lockstep: the
    // builder salts each RetryingStore from a process-wide ordinal.
    let a = slim_oss::next_jitter_salt();
    let b = slim_oss::next_jitter_salt();
    assert_ne!(a, b);
    let base = RetryPolicy::default();
    let pa = base.clone().salted(a);
    let pb = base.clone().salted(b);
    assert_ne!(pa.jitter_seed, pb.jitter_seed);
    assert!((1..=8).any(|r| pa.backoff(r) != pb.backoff(r)));
}

/// Seeded straggler soak: many rounds of mixed single/batch reads under a
/// heavy-tail endpoint with byte-verification on every result. Run with
/// `cargo test --release --test hedging -- --ignored`.
#[test]
#[ignore]
fn soak_straggler_chaos_stays_byte_identical() {
    let oss = Oss::in_memory();
    oss.set_endpoints(2);
    let keys: Vec<String> = (0..16).map(|k| format!("s/{k}")).collect();
    let payloads: Vec<Vec<u8>> = (0..16).map(|k| data(900 + k, 8192)).collect();
    for (key, bytes) in keys.iter().zip(&payloads) {
        oss.put(key, Bytes::from(bytes.clone())).unwrap();
    }
    oss.inject_fault(FaultPlan::LatencyPareto {
        prefix: String::new(),
        endpoint: Some(0),
        scale: Duration::from_micros(400),
        shape: 1.1,
        cap: Duration::from_millis(5),
        seed: 61,
    });
    oss.inject_fault_also(FaultPlan::EndpointTransient {
        endpoint: 0,
        prob: 0.3,
        seed: 62,
    });
    let store = hedged_over(&oss, eager_policy());
    for round in 0u64..200 {
        for (j, key) in keys.iter().enumerate() {
            if let Ok(got) = store.get(key) {
                assert_eq!(got.as_ref(), payloads[j].as_slice(), "round {round}");
            }
        }
        if round % 4 == 0 {
            for (j, result) in store.get_many(&keys).into_iter().enumerate() {
                if let Ok(got) = result {
                    assert_eq!(got.as_ref(), payloads[j].as_slice(), "round {round}");
                }
            }
        }
    }
    assert!(
        store.health().score(0) > store.health().score(1),
        "a soaked tracker has learned which endpoint is sick"
    );
}
