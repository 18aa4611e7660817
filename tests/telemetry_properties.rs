//! Property-based tests of the telemetry subsystem, plus the end-to-end
//! acceptance check: after a backup + restore + G-node cycle the system
//! snapshot reports every pipeline phase, survives a JSON round trip, and
//! the generic snapshot delta matches the per-backup report.

use proptest::prelude::*;
use slim_oss::rocks::RocksConfig;
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
fn key() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "oss.get_requests".to_string(),
        "lnode.0.chunks".to_string(),
        "lnode.1.span.chunking".to_string(),
        "gnode.span.scc".to_string(),
        "retry.retry_bytes".to_string(),
    ])
}

/// Histogram observations bounded so that sums of merged snapshots stay
/// far from `u64::MAX` (merge adds sums without saturation by design —
/// values are nanoseconds in practice).
fn observations() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..(1u64 << 48), 0..16)
}

fn snapshot() -> impl Strategy<Value = TelemetrySnapshot> {
    (
        prop::collection::vec((key(), 0..(1u64 << 60)), 0..4),
        prop::collection::vec((key(), any::<i64>()), 0..4),
        prop::collection::vec((key(), observations()), 0..3),
    )
        .prop_map(|(c, g, h)| snapshot_from(&c, &g, &h))
}

proptest! {
    /// Bucketing is monotone: a larger value never lands in a smaller
    /// bucket, and every value is at most its bucket's ceiling.
    #[test]
    fn bucket_assignment_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_of(lo) <= bucket_of(hi));
        prop_assert!(bucket_of(lo) < BUCKETS);
        prop_assert!(bucket_ceiling(bucket_of(lo)) >= lo);
        prop_assert!(lo == 0 || bucket_ceiling(bucket_of(lo) - 1) < lo);
    }

    /// Quantiles are monotone in `q` and clamped to the observed range.
    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(any::<u64>(), 1..64)) {
        let h = hist_from(&values);
        let (mut last, steps) = (0u64, 10usize);
        for i in 0..=steps {
            let q = i as f64 / steps as f64;
            let v = h.quantile(q);
            prop_assert!(v >= last, "quantile({q}) = {v} < {last}");
            prop_assert!(v >= h.min && v <= h.max);
            last = v;
        }
    }

    /// Histogram merge is associative and commutative with the empty
    /// snapshot as identity, so per-node snapshots fold in any order.
    #[test]
    fn histogram_merge_is_associative(
        a in observations(),
        b in observations(),
        c in observations(),
    ) {
        let (ha, hb, hc) = (hist_from(&a), hist_from(&b), hist_from(&c));
        prop_assert_eq!(ha.merge(&hb).merge(&hc), ha.merge(&hb.merge(&hc)));
        prop_assert_eq!(ha.merge(&hb), hb.merge(&ha));
        prop_assert_eq!(ha.merge(&HistogramSnapshot::default()), ha.clone());
        // Merging matches recording everything into one histogram.
        let mut all = a.clone();
        all.extend(&b);
        prop_assert_eq!(ha.merge(&hb), hist_from(&all));
    }

    /// Snapshot merge is associative, and snapshots survive JSON.
    #[test]
    fn snapshot_merge_is_associative_and_json_safe(
        a in snapshot(),
        b in snapshot(),
        c in snapshot(),
    ) {
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        prop_assert_eq!(
            a.merge(&TelemetrySnapshot::default()).counters,
            a.counters.clone()
        );
        let round = TelemetrySnapshot::from_json(&a.to_json()).unwrap();
        prop_assert_eq!(round, a);
    }

    /// `since` inverts `merge` for counters and histogram counts (the
    /// delta algebra the per-backup reports rely on).
    #[test]
    fn since_recovers_the_merged_interval(a in snapshot(), b in snapshot()) {
        let merged = a.merge(&b);
        let delta = merged.since(&a);
        for (k, v) in &b.counters {
            prop_assert_eq!(delta.counter(k), *v);
        }
        for (k, h) in &b.histograms {
            let d = delta.histogram(k).unwrap();
            prop_assert_eq!(d.count, h.count);
            prop_assert_eq!(d.sum, h.sum);
        }
    }
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
    let input: Vec<u8> = (0..40_000u32)
        .map(|i| i.wrapping_mul(2_654_435_761) as u8)
        .collect();

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
