//! Batched OSS I/O plane: sequential-equivalence properties and the
//! acceptance check for the G-node offline cycle.
//!
//! The batched operations (`get_many` / `get_range_many` / `len_many` /
//! `delete_many`) pre-draw every fault decision in input order before the
//! worker fan-out, so under any seeded fault schedule a batch must be
//! indistinguishable from the equivalent sequence of single calls: same
//! per-item results, same per-item errors, and byte-identical request/byte
//! counters. Only wall-clock (and the net-time the channel pool charges)
//! may differ — that difference *is* the optimisation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use slim_oss::{FaultPlan, MetricsSnapshot, NetworkModel, ObjectStore, Oss};
use slim_types::rng::bytes as data;
use slim_types::{FileId, SlimConfig};
use slimstore::SlimStore;

/// Compare two traffic snapshots ignoring the time fields: batching changes
/// when requests run, never how many there are or what they carry.
fn assert_same_traffic(label: &str, mut a: MetricsSnapshot, mut b: MetricsSnapshot) {
    a.net_time = Duration::ZERO;
    b.net_time = Duration::ZERO;
    a.injected_delay = Duration::ZERO;
    b.injected_delay = Duration::ZERO;
    assert_eq!(a, b, "{label}: batched and sequential traffic diverged");
}

/// Build an Oss pre-loaded with `objects` keys and a seeded transient plan.
fn faulty_store(seed: u64, objects: u64) -> Oss {
    let oss = Oss::in_memory();
    for i in 0..objects {
        let len = 64 + (i as usize * 37) % 1500;
        oss.put(&format!("objs/{i:03}"), Bytes::from(data(seed ^ i, len)))
            .unwrap();
    }
    oss.inject_fault(FaultPlan::TransientProb {
        prefix: "objs/".into(),
        prob: 0.4,
        seed,
    });
    oss
}

#[test]
fn get_many_is_equivalent_to_sequential_gets_under_seeded_faults() {
    for seed in [1u64, 7, 42, 0xdead, 0xbeef] {
        // Two identical stores with identical fault schedules; one serves a
        // batch, the other the same keys one by one. Mix in missing keys so
        // per-item errors are exercised too.
        let sequential = faulty_store(seed, 48);
        let batched = faulty_store(seed, 48);
        let keys: Vec<String> = (0..64u64)
            .map(|i| {
                if i % 7 == 3 {
                    format!("missing/{i}")
                } else {
                    format!("objs/{:03}", i % 48)
                }
            })
            .collect();
        let seq_results: Vec<_> = keys.iter().map(|k| sequential.get(k)).collect();
        let batch_results = batched.get_many(&keys);
        assert_eq!(seq_results.len(), batch_results.len());
        for (i, (s, b)) in seq_results.iter().zip(&batch_results).enumerate() {
            match (s, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "seed {seed} key {i}: payload diverged"),
                (Err(x), Err(y)) => assert_eq!(
                    x.to_string(),
                    y.to_string(),
                    "seed {seed} key {i}: error diverged"
                ),
                _ => panic!(
                    "seed {seed} key {i}: ok/err divergence (sequential {s:?} vs batched {b:?})"
                ),
            }
        }
        assert_same_traffic(
            "get_many",
            sequential.metrics_snapshot().unwrap(),
            batched.metrics_snapshot().unwrap(),
        );
    }
}

#[test]
fn len_and_delete_many_are_equivalent_to_sequential_under_seeded_faults() {
    for seed in [3u64, 11, 0xc0ffee] {
        let sequential = faulty_store(seed, 32);
        let batched = faulty_store(seed, 32);
        let keys: Vec<String> = (0..40u64)
            .map(|i| {
                if i % 9 == 4 {
                    format!("missing/{i}")
                } else {
                    format!("objs/{:03}", i % 32)
                }
            })
            .collect();
        let seq_lens: Vec<_> = keys.iter().map(|k| sequential.len(k)).collect();
        for (i, (s, b)) in seq_lens.iter().zip(batched.len_many(&keys)).enumerate() {
            match (s, &b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "seed {seed} len {i}"),
                (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string(), "seed {seed} len {i}"),
                _ => panic!("seed {seed} len {i}: ok/err divergence ({s:?} vs {b:?})"),
            }
        }
        let seq_dels: Vec<_> = keys.iter().map(|k| sequential.delete(k)).collect();
        for (i, (s, b)) in seq_dels.iter().zip(batched.delete_many(&keys)).enumerate() {
            match (s, &b) {
                (Ok(()), Ok(())) => {}
                (Err(x), Err(y)) => {
                    assert_eq!(x.to_string(), y.to_string(), "seed {seed} delete {i}")
                }
                _ => panic!("seed {seed} delete {i}: ok/err divergence ({s:?} vs {b:?})"),
            }
        }
        // The surviving key sets must be identical too.
        assert_eq!(sequential.list(""), batched.list(""));
        assert_same_traffic(
            "len/delete_many",
            sequential.metrics_snapshot().unwrap(),
            batched.metrics_snapshot().unwrap(),
        );
    }
}

#[test]
fn batched_reads_draw_the_same_corruption_schedule_as_sequential() {
    use slim_oss::CorruptionKind;
    // Corruption decisions are pre-drawn per plan ordinal: under the same
    // seeded CorruptRead plan, a batch must hand back byte-identically
    // mangled payloads as the equivalent sequence of single reads — the
    // read-repair plane depends on detection being schedule-independent.
    for kind in [CorruptionKind::BitFlip, CorruptionKind::Truncate] {
        for seed in [5u64, 23, 0xfeed] {
            let mk = |seed: u64| {
                let oss = Oss::in_memory();
                for i in 0..24u64 {
                    let len = 80 + (i as usize * 53) % 900;
                    oss.put(&format!("objs/{i:03}"), Bytes::from(data(seed ^ i, len)))
                        .unwrap();
                }
                oss.inject_fault(FaultPlan::CorruptRead {
                    prefix: "objs/".into(),
                    kind,
                    seed,
                });
                oss
            };
            let sequential = mk(seed);
            let batched = mk(seed);
            let keys: Vec<String> = (0..32u64)
                .map(|i| {
                    if i % 11 == 6 {
                        format!("missing/{i}")
                    } else {
                        format!("objs/{:03}", i % 24)
                    }
                })
                .collect();

            let seq_results: Vec<_> = keys.iter().map(|k| sequential.get(k)).collect();
            for (i, (s, b)) in seq_results.iter().zip(batched.get_many(&keys)).enumerate() {
                match (s, &b) {
                    (Ok(x), Ok(y)) => assert_eq!(
                        x, y,
                        "{kind:?} seed {seed} key {i}: mangled payload diverged"
                    ),
                    (Err(x), Err(y)) => {
                        assert_eq!(x.to_string(), y.to_string(), "{kind:?} seed {seed} key {i}")
                    }
                    _ => panic!("{kind:?} seed {seed} key {i}: ok/err divergence ({s:?} vs {b:?})"),
                }
            }

            // Ranged reads draw from the same ordinal stream.
            let ranges: Vec<(String, u64, u64)> =
                keys.iter().map(|k| (k.clone(), 3u64, 40u64)).collect();
            let seq_ranges: Vec<_> = ranges
                .iter()
                .map(|(k, off, len)| sequential.get_range(k, *off, *len))
                .collect();
            for (i, (s, b)) in seq_ranges
                .iter()
                .zip(batched.get_range_many(&ranges))
                .enumerate()
            {
                match (s, &b) {
                    (Ok(x), Ok(y)) => assert_eq!(
                        x, y,
                        "{kind:?} seed {seed} range {i}: mangled payload diverged"
                    ),
                    (Err(x), Err(y)) => assert_eq!(
                        x.to_string(),
                        y.to_string(),
                        "{kind:?} seed {seed} range {i}"
                    ),
                    _ => {
                        panic!("{kind:?} seed {seed} range {i}: ok/err divergence ({s:?} vs {b:?})")
                    }
                }
            }
            assert_same_traffic(
                "corrupt reads",
                sequential.metrics_snapshot().unwrap(),
                batched.metrics_snapshot().unwrap(),
            );
        }
    }
}

/// Acceptance: with the paper's OSS-like network model, the G-node offline
/// cycle (reverse dedup + version collection) over ≥ 32 containers is faster
/// through the batched I/O plane than over a one-channel network of the same
/// latency and bandwidth (where every batch runs the sequential path), while
/// the request/byte counters stay identical.
#[test]
fn batched_gnode_cycle_is_faster_with_identical_traffic() {
    fn run_cycle(network: NetworkModel) -> (MetricsSnapshot, Duration) {
        let oss = Oss::new(network);
        let store = SlimStore::builder()
            .with_object_store(Arc::new(oss.clone()))
            .with_config(SlimConfig::small_for_tests())
            .build()
            .unwrap();
        // Version 0 stores `a`; version 1 stores the same bytes under a new
        // file name behind a fresh prefix. Similar-file detection votes on
        // the first sampled fingerprints of the header, which all fall in
        // the prefix, so the online path dedups nothing — every chunk of the
        // payload is an exact duplicate only the offline reverse dedup finds.
        let payload = data(99, 320_000);
        store
            .backup_version(vec![(FileId::new("a"), payload.clone())])
            .unwrap();
        let mut shifted = data(98, 32_000);
        shifted.extend_from_slice(&payload);
        let report = store
            .backup_version(vec![(FileId::new("b"), shifted)])
            .unwrap();
        assert!(report.stats.dedup_ratio() < 0.05, "online path found dups");
        let new_containers = store.storage().list_containers().len();
        assert!(
            new_containers >= 64,
            "need ≥ 32 containers per version for the sweep to matter, have {new_containers} total"
        );
        let before = oss.metrics_snapshot().unwrap();
        let t0 = Instant::now();
        store.run_gnode_cycle(report.version).unwrap();
        store.retain_last(1).unwrap();
        let elapsed = t0.elapsed();
        (oss.metrics_snapshot().unwrap().since(&before), elapsed)
    }

    let (seq_traffic, seq_time) = run_cycle(NetworkModel {
        channels: 1,
        ..NetworkModel::oss_like()
    });
    let (batch_traffic, batch_time) = run_cycle(NetworkModel::oss_like());
    assert_same_traffic("gnode cycle", seq_traffic, batch_traffic);
    assert!(
        batch_time < seq_time,
        "batched G-node cycle must beat the sequential one: batched {batch_time:?} vs sequential {seq_time:?}"
    );
}
