//! OSS traffic accounting.
//!
//! Every experiment in the paper that measures "read container number per
//! 100 MB", OSS bandwidth consumption, or network time is computed from
//! counters like these. Since PR 2 the counters are registry-backed
//! [`slim_telemetry`] handles: all L-node/G-node threads share one
//! instance without locking, and the same values appear under the `oss.*`
//! names in [`slim_telemetry::TelemetrySnapshot`]s. [`MetricsSnapshot`] is
//! the plain-struct copy [`crate::ObjectStore::metrics_snapshot`] returns,
//! so a store that does not share the deployment's registry can still be
//! overlaid into its snapshots ([`MetricsSnapshot::overlay_into`]).

use std::time::Duration;

use slim_telemetry::{Counter, Histogram, Registry, Scope, TelemetrySnapshot};

/// Live counters on an [`crate::Oss`] instance.
///
/// Construct with [`OssMetrics::new`] to register the counters under a
/// shared telemetry scope (canonically `"oss"`); the `Default` instance
/// registers in a fresh private registry so a bare `Oss::new` still
/// counts correctly without any wiring.
#[derive(Debug, Clone)]
pub struct OssMetrics {
    /// Number of GET (full or range) requests.
    pub get_requests: Counter,
    /// Number of PUT requests.
    pub put_requests: Counter,
    /// Number of DELETE requests.
    pub delete_requests: Counter,
    /// Payload bytes downloaded.
    pub bytes_read: Counter,
    /// Payload bytes uploaded.
    pub bytes_written: Counter,
    /// Wall-clock nanoseconds threads spent inside OSS calls (latency +
    /// transfer + channel queueing). This is the "network time" series of
    /// Fig 2.
    pub net_time_nanos: Counter,
    /// Faults injected by the armed [`crate::FaultPlan`]s (all kinds).
    pub injected_faults: Counter,
    /// Nanoseconds of artificial latency injected by `FaultPlan::Latency`.
    pub injected_delay_nanos: Counter,
    /// Per-request wall-time distribution (nanoseconds), across GET, PUT,
    /// and DELETE. Exposes p50/p95/p99 in telemetry snapshots as
    /// `oss.request_nanos`.
    pub request_nanos: Histogram,
    /// Number of batched (`*_many`) calls issued (`oss.batch.calls`).
    pub batch_calls: Counter,
    /// Total items across all batched calls (`oss.batch.items`).
    pub batch_items: Counter,
    /// Batch size distribution — items per batched call (`oss.batch.size`).
    pub batch_size: Histogram,
    /// Worker fan-out per batched call: how many of the network model's
    /// channels the batch actually saturates (`oss.batch.fanout`).
    pub batch_fanout: Histogram,
    /// Read payloads mangled by an armed [`crate::FaultPlan::CorruptRead`]
    /// plan (`oss.corruption.injected`). Like the batch counters, kept out
    /// of [`MetricsSnapshot`]: corruption is a test-plane concern, not OSS
    /// traffic.
    pub corruptions: Counter,
}

impl OssMetrics {
    /// Names used by this view, relative to its scope, in the order
    /// [`MetricsSnapshot::overlay_into`] writes them.
    const COUNTERS: [&'static str; 8] = [
        "get_requests",
        "put_requests",
        "delete_requests",
        "bytes_read",
        "bytes_written",
        "net_time_nanos",
        "injected_faults",
        "injected_delay_nanos",
    ];

    /// Register (or re-attach to) the OSS counters under `scope`.
    pub fn new(scope: &Scope) -> Self {
        OssMetrics {
            get_requests: scope.counter("get_requests"),
            put_requests: scope.counter("put_requests"),
            delete_requests: scope.counter("delete_requests"),
            bytes_read: scope.counter("bytes_read"),
            bytes_written: scope.counter("bytes_written"),
            net_time_nanos: scope.counter("net_time_nanos"),
            injected_faults: scope.counter("injected_faults"),
            injected_delay_nanos: scope.counter("injected_delay_nanos"),
            request_nanos: scope.histogram("request_nanos"),
            batch_calls: scope.counter("batch.calls"),
            batch_items: scope.counter("batch.items"),
            batch_size: scope.histogram("batch.size"),
            batch_fanout: scope.histogram("batch.fanout"),
            corruptions: scope.counter("corruption.injected"),
        }
    }

    pub(crate) fn record_get(&self, bytes: u64, elapsed: Duration) {
        self.get_requests.inc();
        self.bytes_read.add(bytes);
        self.record_elapsed(elapsed);
    }

    pub(crate) fn record_put(&self, bytes: u64, elapsed: Duration) {
        self.put_requests.inc();
        self.bytes_written.add(bytes);
        self.record_elapsed(elapsed);
    }

    pub(crate) fn record_delete(&self, elapsed: Duration) {
        self.delete_requests.inc();
        self.record_elapsed(elapsed);
    }

    fn record_elapsed(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.net_time_nanos.add(nanos);
        self.request_nanos.record(nanos);
    }

    /// Account one batched call of `items` requests served by `workers`
    /// fan-out. Deliberately *not* part of [`MetricsSnapshot`]: the batch
    /// plane must leave the per-request byte/request counters (the read
    /// amplification metrics of Fig 5 / Fig 10) byte-identical to the
    /// sequential path, so batch accounting lives only in telemetry.
    pub(crate) fn record_batch(&self, items: usize, workers: usize) {
        self.batch_calls.inc();
        self.batch_items.add(items as u64);
        self.batch_size.record(items as u64);
        self.batch_fanout.record(workers as u64);
    }

    pub(crate) fn record_injected_fault(&self) {
        self.injected_faults.inc();
    }

    pub(crate) fn record_injected_corruption(&self) {
        self.corruptions.inc();
    }

    pub(crate) fn record_injected_delay(&self, delay: Duration) {
        self.injected_delay_nanos
            .add(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Capture current values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            get_requests: self.get_requests.get(),
            put_requests: self.put_requests.get(),
            delete_requests: self.delete_requests.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            net_time: Duration::from_nanos(self.net_time_nanos.get()),
            injected_faults: self.injected_faults.get(),
            injected_delay: Duration::from_nanos(self.injected_delay_nanos.get()),
            retries: 0,
            giveups: 0,
            retry_bytes: 0,
        }
    }
}

impl Default for OssMetrics {
    fn default() -> Self {
        OssMetrics::new(&Registry::new().scope("oss"))
    }
}

/// Point-in-time copy of [`OssMetrics`]; supports differencing so harnesses
/// can measure one phase of an experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub get_requests: u64,
    pub put_requests: u64,
    pub delete_requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub net_time: Duration,
    /// Faults injected by armed fault plans (all kinds).
    pub injected_faults: u64,
    /// Artificial latency injected by `FaultPlan::Latency`.
    pub injected_delay: Duration,
    /// Operations re-issued by a [`crate::RetryingStore`] after a retryable
    /// failure. Zero when the snapshot comes from a bare store.
    pub retries: u64,
    /// Operations a [`crate::RetryingStore`] abandoned after exhausting its
    /// attempt or deadline budget.
    pub giveups: u64,
    /// Payload bytes re-uploaded by retried PUT attempts. Kept separate so
    /// retries never inflate `bytes_written` (the dedup-cost series of the
    /// paper's figures); `bytes_written` stays the logical upload volume.
    pub retry_bytes: u64,
}

impl MetricsSnapshot {
    /// Traffic between `earlier` and `self`.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            get_requests: self.get_requests - earlier.get_requests,
            put_requests: self.put_requests - earlier.put_requests,
            delete_requests: self.delete_requests - earlier.delete_requests,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            net_time: self.net_time.saturating_sub(earlier.net_time),
            injected_faults: self.injected_faults - earlier.injected_faults,
            injected_delay: self.injected_delay.saturating_sub(earlier.injected_delay),
            retries: self.retries - earlier.retries,
            giveups: self.giveups - earlier.giveups,
            retry_bytes: self.retry_bytes - earlier.retry_bytes,
        }
    }

    /// Total request count.
    pub fn total_requests(&self) -> u64 {
        self.get_requests + self.put_requests + self.delete_requests
    }

    /// Write this snapshot into `snap` under the canonical `oss.*` /
    /// `retry.*` counter names. Used when an externally-supplied object
    /// store does not share the main registry: its own counters are
    /// overlaid at snapshot time so every store looks the same in
    /// telemetry output.
    pub fn overlay_into(&self, snap: &mut TelemetrySnapshot) {
        let values = [
            self.get_requests,
            self.put_requests,
            self.delete_requests,
            self.bytes_read,
            self.bytes_written,
            u64::try_from(self.net_time.as_nanos()).unwrap_or(u64::MAX),
            self.injected_faults,
            u64::try_from(self.injected_delay.as_nanos()).unwrap_or(u64::MAX),
        ];
        for (name, value) in OssMetrics::COUNTERS.iter().zip(values) {
            snap.counters.insert(format!("oss.{name}"), value);
        }
        snap.counters.insert("retry.retries".into(), self.retries);
        snap.counters.insert("retry.giveups".into(), self.giveups);
        snap.counters
            .insert("retry.retry_bytes".into(), self.retry_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = OssMetrics::default();
        m.record_get(100, Duration::from_millis(2));
        m.record_put(50, Duration::from_millis(1));
        m.record_delete(Duration::from_millis(1));
        let s = m.snapshot();
        assert_eq!(s.get_requests, 1);
        assert_eq!(s.put_requests, 1);
        assert_eq!(s.delete_requests, 1);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.bytes_written, 50);
        assert_eq!(s.net_time, Duration::from_millis(4));
        assert_eq!(s.total_requests(), 3);
        assert_eq!(m.request_nanos.snapshot().count, 3);
    }

    #[test]
    fn snapshot_difference() {
        let m = OssMetrics::default();
        m.record_get(100, Duration::from_millis(1));
        let a = m.snapshot();
        m.record_get(200, Duration::from_millis(1));
        m.record_put(10, Duration::ZERO);
        let b = m.snapshot();
        let d = b.since(&a);
        assert_eq!(d.get_requests, 1);
        assert_eq!(d.bytes_read, 200);
        assert_eq!(d.put_requests, 1);
        assert_eq!(d.bytes_written, 10);
    }

    #[test]
    fn registry_backed_counters_share_the_scope() {
        let registry = Registry::new();
        let m = OssMetrics::new(&registry.scope("oss"));
        m.record_put(64, Duration::from_micros(5));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("oss.put_requests"), 1);
        assert_eq!(snap.counter("oss.bytes_written"), 64);
        assert_eq!(snap.histogram("oss.request_nanos").unwrap().count, 1);
    }

    #[test]
    fn overlay_writes_the_canonical_names() {
        let m = OssMetrics::default();
        m.record_get(100, Duration::from_millis(2));
        m.record_put(50, Duration::from_millis(1));
        let mut view = m.snapshot();
        view.retries = 3;
        view.retry_bytes = 150;

        let mut snap = TelemetrySnapshot::default();
        view.overlay_into(&mut snap);
        assert_eq!(snap.counter("oss.get_requests"), 1);
        assert_eq!(snap.counter("oss.put_requests"), 1);
        assert_eq!(snap.counter("oss.delete_requests"), 0);
        assert_eq!(snap.counter("oss.bytes_read"), 100);
        assert_eq!(snap.counter("oss.bytes_written"), 50);
        assert_eq!(snap.counter("oss.net_time_nanos"), 3_000_000);
        assert_eq!(snap.counter("oss.injected_faults"), 0);
        assert_eq!(snap.counter("oss.injected_delay_nanos"), 0);
        assert_eq!(snap.counter("retry.retries"), 3);
        assert_eq!(snap.counter("retry.giveups"), 0);
        assert_eq!(snap.counter("retry.retry_bytes"), 150);
        assert_eq!(snap.counters.len(), 11, "nothing else is written");
    }
}
