//! `slim-telemetry` — the unified observability layer for SlimStore.
//!
//! The crate provides three building blocks:
//!
//! * a lock-free metric [`Registry`] holding named [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed latency [`Histogram`]s. Handles are
//!   cheap `Arc` clones, so the hot path (incrementing a counter per
//!   OSS request, recording a per-chunk latency) touches a single
//!   atomic and never takes the registry lock;
//! * hierarchical [`Span`] timers created through component
//!   [`Scope`]s (`oss`, `retry`, `lnode.<id>`, `gnode`, …) that record
//!   elapsed wall time into histograms named
//!   `<scope>.span.<phase>`, giving the per-phase cost breakdowns the
//!   paper's Fig 2 / Fig 5d / Fig 10c are built from;
//! * immutable [`TelemetrySnapshot`]s with `merge` / `since` algebra
//!   and a dependency-free JSON codec, so snapshots can be shipped
//!   from bench harnesses and the CLI, diffed per backup version, and
//!   aggregated across L-nodes.
//!
//! # Example
//!
//! ```
//! use slim_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let oss = registry.scope("oss");
//! let puts = oss.counter("put_requests");
//! puts.add(3);
//!
//! {
//!     let _span = oss.span("flush"); // records on drop
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("oss.put_requests"), 3);
//! assert_eq!(snap.histogram("oss.span.flush").unwrap().count, 1);
//! let round_trip = slim_telemetry::TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(round_trip, snap);
//! ```

#![forbid(unsafe_code)]

mod json;
mod metric;
mod registry;
mod snapshot;
mod span;

pub use json::{JsonError, JsonValue};
pub use metric::{bucket_ceiling, bucket_of, Counter, Gauge, Histogram, BUCKETS};
pub use registry::{Registry, Scope};
pub use snapshot::{HistogramSnapshot, TelemetrySnapshot};
pub use span::Span;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn counter_and_gauge_basics() {
        let registry = Registry::new();
        let c = registry.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns a handle to the same cell.
        assert_eq!(registry.counter("hits").get(), 5);

        let g = registry.gauge("depth");
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(g.get(), 8);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("hits"), 5);
        assert_eq!(snap.gauge("depth"), 8);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn kind_collision_returns_detached_handle() {
        let registry = Registry::new();
        let c = registry.counter("x");
        c.add(2);
        // Asking for the same name as a different kind must not panic
        // and must not clobber the registered counter.
        let g = registry.gauge("x");
        g.set(99);
        let h = registry.histogram("x");
        h.record(1);
        assert_eq!(registry.snapshot().counter("x"), 2);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..=63u32 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_of(lo), i as usize, "low edge of bucket {i}");
            assert_eq!(bucket_of(hi), i as usize, "high edge of bucket {i}");
        }
        assert_eq!(bucket_ceiling(0), 0);
        assert_eq!(bucket_ceiling(1), 1);
        assert_eq!(bucket_ceiling(5), 31);
        assert_eq!(bucket_ceiling(64), u64::MAX);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let h = Histogram::detached();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), 221);
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.max);
        assert!(s.quantile(0.0) >= s.min);

        let empty = HistogramSnapshot::default();
        assert!(empty.is_empty());
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.mean(), 0);
    }

    #[test]
    fn histogram_merge_is_associative_with_empty_identity() {
        let mk = |values: &[u64]| {
            let h = Histogram::detached();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 9]);
        let b = mk(&[2, 1_000_000]);
        let c = mk(&[0, 0, 7]);
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b), b.merge(&a));
        let empty = HistogramSnapshot::default();
        assert_eq!(a.merge(&empty), a);
        assert_eq!(empty.merge(&a), a);
        let all = a.merge(&b).merge(&c);
        assert_eq!(all.count, 8);
        assert_eq!(all.min, 0);
        assert_eq!(all.max, 1_000_000);
    }

    #[test]
    fn histogram_since_recovers_interval() {
        let h = Histogram::detached();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(30);
        h.record(40);
        let after = h.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 70);
        // Buckets: 30 and 40 both land in bucket [32,64) except 30 in [16,32).
        assert_eq!(
            delta.buckets[bucket_of(30)] + delta.buckets[bucket_of(40)],
            2
        );
        // Identical snapshots produce an empty delta with the invariant intact.
        let zero = after.since(&after);
        assert!(zero.is_empty());
        assert_eq!(zero, HistogramSnapshot::default().merge(&zero));
        assert_eq!(zero.min, u64::MAX);
        assert_eq!(zero.max, 0);
    }

    #[test]
    fn scopes_prefix_names_and_nest() {
        let registry = Registry::new();
        let root = registry.scope("");
        root.counter("top").inc();
        let lnode = registry.scope("lnode").child("3");
        assert_eq!(lnode.prefix(), "lnode.3");
        lnode.counter("chunks").add(10);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("top"), 1);
        assert_eq!(snap.counter("lnode.3.chunks"), 10);
    }

    #[test]
    fn spans_record_on_drop_finish_and_cancel() {
        let registry = Registry::new();
        let gnode = registry.scope("gnode");
        {
            let _cycle = gnode.span("cycle");
        }
        let elapsed = gnode.span("cycle").finish();
        let child = gnode.span("cycle").child("scc");
        assert_eq!(child.path(), "cycle.scc");
        drop(child);
        gnode.span("collect").cancel();
        gnode.record_span("collect", Duration::from_nanos(500));

        let snap = registry.snapshot();
        // Two dropped/finished cycle spans (the parent of `child` also
        // records when dropped — three total for "cycle").
        assert_eq!(snap.span("gnode", "cycle").unwrap().count, 3);
        assert_eq!(snap.span("gnode", "cycle.scc").unwrap().count, 1);
        // Cancelled span records nothing; record_span adds exactly one.
        let collect = snap.span("gnode", "collect").unwrap();
        assert_eq!(collect.count, 1);
        assert_eq!(collect.sum, 500);
        assert!(elapsed <= Duration::from_secs(1));
    }

    #[test]
    fn snapshot_merge_and_since() {
        let r1 = Registry::new();
        r1.counter("a").add(3);
        r1.gauge("g").set(5);
        r1.histogram("h").record(8);
        let r2 = Registry::new();
        r2.counter("a").add(4);
        r2.counter("b").inc();
        r2.histogram("h").record(16);

        let merged = r1.snapshot().merge(&r2.snapshot());
        assert_eq!(merged.counter("a"), 7);
        assert_eq!(merged.counter("b"), 1);
        assert_eq!(merged.gauge("g"), 5);
        assert_eq!(merged.histogram("h").unwrap().count, 2);

        let before = r1.snapshot();
        r1.counter("a").add(10);
        r1.histogram("h").record(32);
        r1.gauge("g").set(-2);
        let delta = r1.snapshot().since(&before);
        assert_eq!(delta.counter("a"), 10);
        assert_eq!(delta.gauge("g"), -2);
        assert_eq!(delta.histogram("h").unwrap().count, 1);
        assert_eq!(delta.histogram("h").unwrap().sum, 32);
    }

    #[test]
    fn json_round_trip_preserves_equality() {
        let registry = Registry::new();
        let scope = registry.scope("oss");
        scope.counter("get_requests").add(12);
        scope.counter("weird \"name\"\n").add(1);
        registry.gauge("rocks.memtable_bytes").set(-7);
        scope.histogram("latency").record(0);
        scope.histogram("latency").record(u64::MAX);
        // An empty histogram exercises the min == u64::MAX sentinel.
        registry.histogram("empty");

        let snap = registry.snapshot();
        let json = snap.to_json();
        let parsed = TelemetrySnapshot::from_json(&json).unwrap();
        assert_eq!(parsed, snap);
        // Deterministic rendering: same snapshot, same string.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(TelemetrySnapshot::from_json("").is_err());
        assert!(TelemetrySnapshot::from_json("{").is_err());
        assert!(TelemetrySnapshot::from_json("[]").is_err());
        assert!(TelemetrySnapshot::from_json("{\"counters\":{\"a\":1.5}}").is_err());
        assert!(TelemetrySnapshot::from_json(
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}} trailing"
        )
        .is_err());
        // Missing sections are an error (snapshots are self-contained).
        assert!(TelemetrySnapshot::from_json("{\"counters\":{}}").is_err());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let registry = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let registry = registry.clone();
                let barrier = barrier.clone();
                thread::spawn(move || {
                    // Half the threads race on registration of the same
                    // names; all race on the cells.
                    let c = registry.counter("shared");
                    let own = registry.counter(&format!("own.{t}"));
                    let h = registry.histogram("lat");
                    barrier.wait();
                    for i in 0..per_thread {
                        c.inc();
                        own.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("shared"), threads as u64 * per_thread);
        for t in 0..threads {
            assert_eq!(snap.counter(&format!("own.{t}")), per_thread);
        }
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, threads as u64 * per_thread);
        assert_eq!(lat.buckets.iter().sum::<u64>(), lat.count);
    }
}
