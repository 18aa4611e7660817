//! Property tests (seeded generator loops, `slim_types::rng::cases`) of the
//! telemetry subsystem, plus the end-to-end
//! acceptance check: after a backup + restore + G-node cycle the system
//! snapshot reports every pipeline phase, survives a JSON round trip, and
//! the generic snapshot delta matches the per-backup report.

use slim_oss::rocks::RocksConfig;
use slim_types::rng::{cases, Rng};
use slim_types::{FileId, SlimConfig};
use slimstore::{SlimStore, SlimStoreBuilder};
use slimstore_repro::telemetry::{
    bucket_ceiling, bucket_of, Histogram, HistogramSnapshot, TelemetrySnapshot, BUCKETS,
};

fn hist_from(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::detached();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

fn snapshot_from(
    counters: &[(String, u64)],
    gauges: &[(String, i64)],
    histograms: &[(String, Vec<u64>)],
) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    for (k, v) in counters {
        snap.counters.insert(k.clone(), *v);
    }
    for (k, v) in gauges {
        snap.gauges.insert(k.clone(), *v);
    }
    for (k, values) in histograms {
        snap.histograms.insert(k.clone(), hist_from(values));
    }
    snap
}

/// Keys drawn from a small alphabet so merges actually collide.
fn key(rng: &mut Rng) -> String {
    const KEYS: [&str; 5] = [
        "oss.get_requests",
        "lnode.0.chunks",
        "lnode.1.span.chunking",
        "gnode.span.scc",
        "retry.retry_bytes",
    ];
    KEYS[rng.gen_range(0..KEYS.len())].to_string()
}

/// Histogram observations bounded so that sums of merged snapshots stay
/// far from `u64::MAX` (merge adds sums without saturation by design —
/// values are nanoseconds in practice).
fn observations(rng: &mut Rng) -> Vec<u64> {
    (0..rng.gen_range(0..16))
        .map(|_| rng.gen_range(0..1u64 << 48))
        .collect()
}

fn snapshot(rng: &mut Rng) -> TelemetrySnapshot {
    let counters: Vec<_> = (0..rng.gen_range(0..4))
        .map(|_| (key(rng), rng.gen_range(0..1u64 << 60)))
        .collect();
    let gauges: Vec<_> = (0..rng.gen_range(0..4))
        .map(|_| (key(rng), rng.next_u64() as i64))
        .collect();
    let histograms: Vec<_> = (0..rng.gen_range(0..3))
        .map(|_| (key(rng), observations(rng)))
        .collect();
    snapshot_from(&counters, &gauges, &histograms)
}

/// A `u64` of random magnitude: uniform draws alone would almost never
/// exercise the low buckets.
fn any_u64(rng: &mut Rng) -> u64 {
    rng.next_u64() >> rng.gen_range(0..64u32)
}

/// Bucketing is monotone: a larger value never lands in a smaller
/// bucket, and every value is at most its bucket's ceiling.
#[test]
fn bucket_assignment_is_monotone() {
    cases(256, 0x7E1E_0001, |rng| {
        let (a, b) = (any_u64(rng), any_u64(rng));
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(bucket_of(lo) <= bucket_of(hi));
        assert!(bucket_of(lo) < BUCKETS);
        assert!(bucket_ceiling(bucket_of(lo)) >= lo);
        assert!(lo == 0 || bucket_ceiling(bucket_of(lo) - 1) < lo);
    });
}

/// Quantiles are monotone in `q` and clamped to the observed range.
#[test]
fn quantiles_are_monotone() {
    cases(256, 0x7E1E_0002, |rng| {
        let values: Vec<u64> = (0..rng.gen_range(1..64)).map(|_| any_u64(rng)).collect();
        let h = hist_from(&values);
        let (mut last, steps) = (0u64, 10usize);
        for i in 0..=steps {
            let q = i as f64 / steps as f64;
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            assert!(v >= h.min && v <= h.max);
            last = v;
        }
    });
}

/// Histogram merge is associative and commutative with the empty
/// snapshot as identity, so per-node snapshots fold in any order.
#[test]
fn histogram_merge_is_associative() {
    cases(256, 0x7E1E_0003, |rng| {
        let (a, b, c) = (observations(rng), observations(rng), observations(rng));
        let (ha, hb, hc) = (hist_from(&a), hist_from(&b), hist_from(&c));
        assert_eq!(ha.merge(&hb).merge(&hc), ha.merge(&hb.merge(&hc)));
        assert_eq!(ha.merge(&hb), hb.merge(&ha));
        assert_eq!(ha.merge(&HistogramSnapshot::default()), ha.clone());
        // Merging matches recording everything into one histogram.
        let mut all = a.clone();
        all.extend(&b);
        assert_eq!(ha.merge(&hb), hist_from(&all));
    });
}

/// Snapshot merge is associative, and snapshots survive JSON.
#[test]
fn snapshot_merge_is_associative_and_json_safe() {
    cases(256, 0x7E1E_0004, |rng| {
        let (a, b, c) = (snapshot(rng), snapshot(rng), snapshot(rng));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(
            a.merge(&TelemetrySnapshot::default()).counters,
            a.counters.clone()
        );
        let round = TelemetrySnapshot::from_json(&a.to_json()).unwrap();
        assert_eq!(round, a);
    });
}

/// `since` inverts `merge` for counters and histogram counts (the
/// delta algebra the per-backup reports rely on).
#[test]
fn since_recovers_the_merged_interval() {
    cases(256, 0x7E1E_0005, |rng| {
        let (a, b) = (snapshot(rng), snapshot(rng));
        let merged = a.merge(&b);
        let delta = merged.since(&a);
        for (k, v) in &b.counters {
            assert_eq!(delta.counter(k), *v);
        }
        for (k, h) in &b.histograms {
            let d = delta.histogram(k).unwrap();
            assert_eq!(d.count, h.count);
            assert_eq!(d.sum, h.sum);
        }
    });
}

/// The ISSUE acceptance criterion, end to end over the system facade.
#[test]
fn acceptance_full_cycle_telemetry() {
    let store = SlimStoreBuilder::in_memory()
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap();
    let file = FileId::new("acceptance");
    let input = slim_types::rng::bytes(1, 40_000);

    let before = store.telemetry_snapshot();
    let report = store
        .backup_version(vec![(file.clone(), input.clone())])
        .unwrap();
    let after_backup = store.telemetry_snapshot();
    // snapshot_delta of two snapshots equals the per-backup delta.
    assert_eq!(
        SlimStore::snapshot_delta(&after_backup, &before),
        report.telemetry
    );

    let (restored, _) = store.restore_file(&file, report.version).unwrap();
    assert_eq!(restored, input);
    store.run_gnode_cycle(report.version).unwrap();

    let snap = store.telemetry_snapshot();
    // Non-zero counters for the whole pipeline.
    assert!(snap.counter("lnode.0.chunks") > 0);
    assert!(snap.counter("lnode.0.logical_bytes") >= input.len() as u64);
    assert!(snap.counter("lnode.0.restored_bytes") >= input.len() as u64);
    assert!(snap.counter("oss.put_requests") > 0);
    assert!(snap.counter("gnode.chunks_scanned") > 0);
    // Span durations for every pipeline phase.
    for (scope, phase) in [
        ("lnode.0", "chunking"),
        ("lnode.0", "fingerprinting"),
        ("lnode.0", "index"),
        ("lnode.0", "container_io"),
        ("lnode.0", "restore"),
        ("gnode", "reverse_dedup"),
        ("gnode", "scc"),
    ] {
        let span = snap
            .span(scope, phase)
            .unwrap_or_else(|| panic!("missing span {scope}.span.{phase}"));
        assert!(span.count > 0, "{scope}.span.{phase} never fired");
        assert!(span.sum > 0, "{scope}.span.{phase} has zero duration");
    }
    // The whole snapshot round-trips through JSON.
    let parsed = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(parsed, snap);
}
