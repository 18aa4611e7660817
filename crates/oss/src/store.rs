//! The object store.
//!
//! [`Oss`] is an in-process object store with the interface and cost profile
//! of a cloud OSS: flat keyspace, whole-object PUT, full and range GET,
//! DELETE, prefix LIST. All payloads are [`Bytes`], so GETs are zero-copy
//! clones of the stored buffer (the *network model* is where the cost lives,
//! not memcpy).
//!
//! # Batched I/O plane
//!
//! Multi-object sweeps (reverse dedup, GC, compaction, space accounting) go
//! through the `*_many` methods of [`ObjectStore`]: per-item `Result`s in
//! input order, driven in [`Oss`] by a bounded worker pool so up to
//! `min(channels, 64)` requests overlap their round-trip latency (§III-A:
//! OSS throughput comes from request concurrency). Fault decisions are drawn
//! sequentially in input order *before* the fan-out starts, so seeded fault
//! schedules and all byte/request counters are identical to the equivalent
//! sequential loop — batching changes scheduling, not which bytes move.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use slim_types::{Result, SlimError};

use crate::fault::{Corruption, FaultDecision, FaultErrorKind, FaultPlan, FaultState};
use crate::metrics::OssMetrics;
use crate::network::{ChannelPool, NetworkModel};

/// Upper bound on the worker fan-out of batched [`Oss`] operations (the
/// channel count of [`NetworkModel::oss_like`]). The network model's own
/// channel count is not enough of a bound: [`NetworkModel::instant`] has
/// `usize::MAX` channels and would spawn one thread per batch item.
const MAX_BATCH_WORKERS: usize = 64;

/// The result of a one-item batch: the policy wrappers implement every
/// single operation as the one-item case of its batch form.
pub(crate) fn only<T>(mut results: Vec<Result<T>>) -> Result<T> {
    debug_assert_eq!(results.len(), 1);
    results.pop().expect("one result per item")
}

/// Object-store interface used by every SLIMSTORE component.
///
/// Trait rather than concrete type so tests can interpose wrappers and so a
/// real S3/OSS client could be dropped in behind the same API.
pub trait ObjectStore: Send + Sync {
    /// Store an object, replacing any existing value.
    fn put(&self, key: &str, value: Bytes) -> Result<()>;

    /// Fetch a whole object.
    fn get(&self, key: &str) -> Result<Bytes>;

    /// Fetch a whole object *without* any redundancy-plane healing: always
    /// the primary's current bytes, corrupt or not. Integrity sweeps and
    /// quarantine moves read through this so detection stays observable;
    /// self-healing wrappers override it to expose the raw primary, and for
    /// every other store it is exactly [`ObjectStore::get`].
    fn get_raw(&self, key: &str) -> Result<Bytes> {
        self.get(key)
    }

    /// Fetch `[start, start+len)` of an object.
    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes>;

    /// Delete an object (idempotent; deleting a missing key is not an error,
    /// matching S3/OSS semantics).
    fn delete(&self, key: &str) -> Result<()>;

    /// Whether an object exists. Free of network cost in this simulation
    /// (real systems use HEAD; SLIMSTORE only calls this on metadata paths),
    /// but fallible like any other request — HEAD hits the same endpoint
    /// that PUT/GET do, so fault plans cover it too.
    fn exists(&self, key: &str) -> Result<bool>;

    /// Object length in bytes, if it exists.
    fn len(&self, key: &str) -> Result<Option<u64>>;

    /// Fetch many whole objects. Item `i` of the result is the outcome for
    /// `keys[i]`; every item carries its own `Result`, so one missing object
    /// does not poison the rest of the batch.
    ///
    /// The default implementation is the equivalent sequential loop; stores
    /// that model network latency override it with a bounded parallel
    /// fan-out carrying identical per-item semantics.
    fn get_many(&self, keys: &[String]) -> Vec<Result<Bytes>> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Fetch many object ranges (`(key, start, len)` per item), with the
    /// same per-item contract as [`ObjectStore::get_many`].
    fn get_range_many(&self, ranges: &[(String, u64, u64)]) -> Vec<Result<Bytes>> {
        ranges
            .iter()
            .map(|(key, start, len)| self.get_range(key, *start, *len))
            .collect()
    }

    /// Query many object lengths, with the same per-item contract as
    /// [`ObjectStore::get_many`].
    fn len_many(&self, keys: &[String]) -> Vec<Result<Option<u64>>> {
        keys.iter().map(|k| self.len(k)).collect()
    }

    /// Delete many objects (idempotent per item), with the same per-item
    /// contract as [`ObjectStore::get_many`].
    fn delete_many(&self, keys: &[String]) -> Vec<Result<()>> {
        keys.iter().map(|k| self.delete(k)).collect()
    }

    /// All keys with the given prefix, in lexicographic order.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Traffic counters, if this store keeps them (the simulated OSS does;
    /// a plain wrapper may not). Jobs use snapshot deltas to attribute
    /// network time.
    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        None
    }
}

struct Inner {
    objects: RwLock<BTreeMap<String, Bytes>>,
    network: NetworkModel,
    channels: ChannelPool,
    metrics: OssMetrics,
    faults: FaultState,
    /// Number of simulated service endpoints (≥ 1). Endpoints share the
    /// object map; they only differentiate fault injection and health
    /// accounting (see [`crate::endpoint`]).
    endpoints: AtomicUsize,
    /// Round-robin cursor for unpinned operations.
    rr: AtomicU64,
}

/// The simulated OSS. Cheap to clone (shared handle).
///
/// ```
/// use slim_oss::{ObjectStore, Oss};
/// let oss = Oss::in_memory();
/// oss.put("bucket/key", bytes::Bytes::from_static(b"payload")).unwrap();
/// assert_eq!(oss.get_range("bucket/key", 0, 3).unwrap().as_ref(), b"pay");
/// assert_eq!(oss.metrics().snapshot().get_requests, 1);
/// ```
#[derive(Clone)]
pub struct Oss {
    inner: Arc<Inner>,
}

impl Oss {
    /// An OSS with the given network model.
    pub fn new(network: NetworkModel) -> Self {
        Oss::build(network, OssMetrics::default())
    }

    /// An OSS whose traffic counters are registered under `scope`
    /// (canonically an `"oss"` scope of a shared telemetry registry), so
    /// they appear directly in [`slim_telemetry::Registry::snapshot`]s
    /// alongside every other component's metrics.
    pub fn with_telemetry(network: NetworkModel, scope: &slim_telemetry::Scope) -> Self {
        Oss::build(network, OssMetrics::new(scope))
    }

    fn build(network: NetworkModel, metrics: OssMetrics) -> Self {
        let channels = ChannelPool::new(network.channels);
        Oss {
            inner: Arc::new(Inner {
                objects: RwLock::new(BTreeMap::new()),
                network,
                channels,
                metrics,
                faults: FaultState::default(),
                endpoints: AtomicUsize::new(1),
                rr: AtomicU64::new(0),
            }),
        }
    }

    /// A free (no latency) OSS for unit tests.
    pub fn in_memory() -> Self {
        Oss::new(NetworkModel::instant())
    }

    /// Traffic counters.
    pub fn metrics(&self) -> &OssMetrics {
        &self.inner.metrics
    }

    /// The network model in force.
    pub fn network(&self) -> &NetworkModel {
        &self.inner.network
    }

    /// Model `n` distinct service endpoints (clamped to at least one).
    /// Endpoints share the object map — this only affects which endpoint a
    /// request resolves to for fault injection (endpoint-scoped plans) and
    /// for the health/hedging plane. With the default of one endpoint,
    /// behaviour is bit-identical to the pre-endpoint store.
    pub fn set_endpoints(&self, n: usize) {
        self.inner.endpoints.store(n.max(1), Ordering::Relaxed);
    }

    /// Number of simulated endpoints.
    pub fn endpoints(&self) -> usize {
        self.inner.endpoints.load(Ordering::Relaxed)
    }

    /// The endpoint serving the next operation on this thread: the ambient
    /// pin ([`crate::endpoint::pin`]) when set, round-robin otherwise.
    /// Always 0 while a single endpoint is configured — the round-robin
    /// cursor is untouched, so enabling endpoints later starts clean.
    fn resolve_endpoint(&self) -> usize {
        let n = self.inner.endpoints.load(Ordering::Relaxed);
        if n <= 1 {
            return 0;
        }
        match crate::endpoint::pinned() {
            Some(pin) => pin % n,
            None => (self.inner.rr.fetch_add(1, Ordering::Relaxed) as usize) % n,
        }
    }

    /// Arm fault injection, replacing any armed plans.
    pub fn inject_fault(&self, plan: FaultPlan) {
        self.inner.faults.arm(plan);
    }

    /// Arm an additional fault plan alongside the already-armed ones (e.g.
    /// latency plus transient failures).
    pub fn inject_fault_also(&self, plan: FaultPlan) {
        self.inner.faults.arm_also(plan);
    }

    /// Disarm fault injection.
    pub fn clear_faults(&self) {
        self.inner.faults.clear();
    }

    /// Total bytes currently stored (sum of object sizes). This is the
    /// "occupied space" series of Fig 9 / Fig 10(c).
    pub fn stored_bytes(&self) -> u64 {
        self.inner
            .objects
            .read()
            .values()
            .map(|v| v.len() as u64)
            .sum()
    }

    /// Total bytes stored under a key prefix.
    pub fn stored_bytes_prefix(&self, prefix: &str) -> u64 {
        self.inner
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v.len() as u64)
            .sum()
    }

    /// Number of objects stored.
    pub fn object_count(&self) -> usize {
        self.inner.objects.read().len()
    }

    /// Apply a pre-drawn fault decision: sleep injected latency, account
    /// it, and map an injected failure onto its error kind.
    fn apply_fault(&self, op: &str, key: &str, decision: FaultDecision) -> Result<()> {
        if !decision.delay.is_zero() {
            std::thread::sleep(decision.delay);
            self.inner.metrics.record_injected_delay(decision.delay);
        }
        let Some(kind) = decision.error else {
            return Ok(());
        };
        self.inner.metrics.record_injected_fault();
        Err(match kind {
            FaultErrorKind::Permanent => SlimError::InjectedFault(format!("{op} {key}")),
            FaultErrorKind::Transient => SlimError::Transient(format!("injected: {op} {key}")),
            FaultErrorKind::Throttled => SlimError::Throttled(format!("injected: {op} {key}")),
        })
    }

    fn check_fault(&self, op: &str, key: &str) -> Result<()> {
        let decision = self.inner.faults.decide_at(key, self.resolve_endpoint());
        self.apply_fault(op, key, decision)
    }

    /// Like [`Oss::check_fault`], but hands back any payload corruption the
    /// decision carries so read paths can apply it to the returned bytes.
    fn check_read_fault(&self, op: &str, key: &str) -> Result<Option<Corruption>> {
        let decision = self.inner.faults.decide_at(key, self.resolve_endpoint());
        self.apply_fault(op, key, decision)?;
        Ok(decision.corruption)
    }

    /// Apply an injected read corruption (if any) to an outgoing payload.
    fn mangle(&self, value: Bytes, corruption: Option<Corruption>) -> Bytes {
        let Some(corruption) = corruption else {
            return value;
        };
        let mut buf = value.to_vec();
        corruption.apply(&mut buf);
        self.inner.metrics.record_injected_corruption();
        Bytes::from(buf)
    }

    /// Charge latency + transfer time for `bytes`, bounded by channel
    /// availability; returns elapsed wall time.
    fn charge(&self, bytes: u64) -> std::time::Duration {
        let start = Instant::now();
        if self.inner.network.is_instant() {
            return start.elapsed();
        }
        let _channel = self.inner.channels.acquire();
        let cost = self.inner.network.request_latency + self.inner.network.transfer_time(bytes);
        std::thread::sleep(cost);
        start.elapsed()
    }

    fn get_after_fault(&self, key: &str, corruption: Option<Corruption>) -> Result<Bytes> {
        let value = self
            .inner
            .objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| SlimError::ObjectNotFound(key.to_string()))?;
        let value = self.mangle(value, corruption);
        let elapsed = self.charge(value.len() as u64);
        self.inner.metrics.record_get(value.len() as u64, elapsed);
        Ok(value)
    }

    fn get_range_after_fault(
        &self,
        key: &str,
        start: u64,
        len: u64,
        corruption: Option<Corruption>,
    ) -> Result<Bytes> {
        let value = self
            .inner
            .objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| SlimError::ObjectNotFound(key.to_string()))?;
        // `start + len` can exceed u64::MAX, and a wrapped `end` would pass
        // the bounds check below.
        let end = start
            .checked_add(len)
            .filter(|end| *end <= value.len() as u64);
        let Some(end) = end else {
            return Err(SlimError::RangeOutOfBounds {
                key: key.to_string(),
                start,
                end: start.saturating_add(len),
                len: value.len() as u64,
            });
        };
        let slice = self.mangle(value.slice(start as usize..end as usize), corruption);
        let elapsed = self.charge(slice.len() as u64);
        self.inner.metrics.record_get(slice.len() as u64, elapsed);
        Ok(slice)
    }

    fn len_after_fault(&self, key: &str) -> Result<Option<u64>> {
        Ok(self.inner.objects.read().get(key).map(|v| v.len() as u64))
    }

    fn delete_after_fault(&self, key: &str) -> Result<()> {
        let elapsed = self.charge(0);
        self.inner.metrics.record_delete(elapsed);
        self.inner.objects.write().remove(key);
        Ok(())
    }

    /// Execute a homogeneous batch with bounded worker fan-out, preserving
    /// exact sequential semantics per item.
    ///
    /// Fault decisions are drawn sequentially in input order *before* any
    /// worker starts: armed plans depend only on the key and the per-plan
    /// operation ordinal, so the batch observes the same fault schedule the
    /// equivalent sequential loop would, regardless of worker interleaving.
    fn run_batch<I, T>(
        &self,
        op: &str,
        items: &[I],
        key_of: impl Fn(&I) -> &str + Sync,
        exec: impl Fn(&I, Option<Corruption>) -> Result<T> + Sync,
    ) -> Vec<Result<T>>
    where
        I: Sync,
        T: Send,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let n = items.len();
        // Endpoints resolve at draw time too (the submitting thread's pin
        // applies to the whole batch; otherwise round-robin per item), so
        // the schedule matches the equivalent sequential loop exactly.
        let decisions: Vec<FaultDecision> = items
            .iter()
            .map(|item| {
                self.inner
                    .faults
                    .decide_at(key_of(item), self.resolve_endpoint())
            })
            .collect();
        let workers = n
            .min(self.inner.network.channels.max(1))
            .min(MAX_BATCH_WORKERS);
        self.inner.metrics.record_batch(n, workers);
        if workers <= 1 {
            return items
                .iter()
                .zip(&decisions)
                .map(|(item, decision)| {
                    self.apply_fault(op, key_of(item), *decision)?;
                    exec(item, decision.corruption)
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = &items[i];
                    let result = self
                        .apply_fault(op, key_of(item), decisions[i])
                        .and_then(|()| exec(item, decisions[i].corruption));
                    *slots[i].lock() = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("batch worker filled every slot"))
            .collect()
    }
}

impl ObjectStore for Oss {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.check_fault("put", key)?;
        let elapsed = self.charge(value.len() as u64);
        self.inner.metrics.record_put(value.len() as u64, elapsed);
        self.inner.objects.write().insert(key.to_string(), value);
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let corruption = self.check_read_fault("get", key)?;
        self.get_after_fault(key, corruption)
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        let corruption = self.check_read_fault("get", key)?;
        self.get_range_after_fault(key, start, len, corruption)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.check_fault("delete", key)?;
        self.delete_after_fault(key)
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.check_fault("head", key)?;
        Ok(self.inner.objects.read().contains_key(key))
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        self.check_fault("head", key)?;
        self.len_after_fault(key)
    }

    fn get_many(&self, keys: &[String]) -> Vec<Result<Bytes>> {
        self.run_batch(
            "get",
            keys,
            |k| k.as_str(),
            |k, corruption| self.get_after_fault(k, corruption),
        )
    }

    fn get_range_many(&self, ranges: &[(String, u64, u64)]) -> Vec<Result<Bytes>> {
        self.run_batch(
            "get",
            ranges,
            |(key, _, _)| key.as_str(),
            |(key, start, len), corruption| {
                self.get_range_after_fault(key, *start, *len, corruption)
            },
        )
    }

    fn len_many(&self, keys: &[String]) -> Vec<Result<Option<u64>>> {
        self.run_batch("head", keys, |k| k.as_str(), |k, _| self.len_after_fault(k))
    }

    fn delete_many(&self, keys: &[String]) -> Vec<Result<()>> {
        self.run_batch(
            "delete",
            keys,
            |k| k.as_str(),
            |k, _| self.delete_after_fault(k),
        )
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        Some(self.inner.metrics.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let oss = Oss::in_memory();
        oss.put("a/b", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(oss.get("a/b").unwrap(), Bytes::from_static(b"hello"));
        assert!(oss.exists("a/b").unwrap());
        assert_eq!(oss.len("a/b").unwrap(), Some(5));
        assert_eq!(oss.object_count(), 1);
        assert_eq!(oss.stored_bytes(), 5);
    }

    #[test]
    fn get_missing_is_error() {
        let oss = Oss::in_memory();
        assert!(matches!(oss.get("nope"), Err(SlimError::ObjectNotFound(_))));
    }

    #[test]
    fn range_reads() {
        let oss = Oss::in_memory();
        oss.put("obj", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(
            oss.get_range("obj", 2, 3).unwrap(),
            Bytes::from_static(b"234")
        );
        assert_eq!(oss.get_range("obj", 0, 10).unwrap().len(), 10);
        assert!(matches!(
            oss.get_range("obj", 5, 6),
            Err(SlimError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn range_read_overflow_is_rejected() {
        // Regression: `start + len` used to be computed with unchecked
        // addition — a panic in debug builds, and in release a wrapped `end`
        // below the object length that passed the bounds check and sliced
        // with start > end.
        let oss = Oss::in_memory();
        oss.put("obj", Bytes::from_static(b"0123456789")).unwrap();
        match oss.get_range("obj", u64::MAX - 2, 5) {
            Err(SlimError::RangeOutOfBounds {
                start, end, len, ..
            }) => {
                assert_eq!(start, u64::MAX - 2);
                assert_eq!(end, u64::MAX, "end saturates instead of wrapping");
                assert_eq!(len, 10);
            }
            other => panic!("expected RangeOutOfBounds, got {other:?}"),
        }
        // A huge start with a small, non-overflowing len is still plain OOB.
        assert!(matches!(
            oss.get_range("obj", u64::MAX - 2, 1),
            Err(SlimError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn delete_is_idempotent() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.delete("k").unwrap();
        assert!(!oss.exists("k").unwrap());
        oss.delete("k").unwrap();
    }

    #[test]
    fn list_respects_prefix_and_order() {
        let oss = Oss::in_memory();
        for k in ["b/2", "a/1", "b/1", "c"] {
            oss.put(k, Bytes::new()).unwrap();
        }
        assert_eq!(oss.list("b/"), vec!["b/1".to_string(), "b/2".to_string()]);
        assert_eq!(oss.list(""), vec!["a/1", "b/1", "b/2", "c"]);
        assert!(oss.list("zz").is_empty());
    }

    #[test]
    fn metrics_count_traffic() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from(vec![0u8; 100])).unwrap();
        oss.get("k").unwrap();
        oss.get_range("k", 0, 10).unwrap();
        let s = oss.metrics().snapshot();
        assert_eq!(s.put_requests, 1);
        assert_eq!(s.get_requests, 2);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 110);
    }

    #[test]
    fn fault_injection_fails_operations() {
        let oss = Oss::in_memory();
        oss.put("containers/1", Bytes::from_static(b"x")).unwrap();
        oss.inject_fault(FaultPlan::KeyPrefix("containers/".into()));
        assert!(matches!(
            oss.get("containers/1"),
            Err(SlimError::InjectedFault(_))
        ));
        // Other keys unaffected.
        oss.put("recipes/1", Bytes::from_static(b"y")).unwrap();
        oss.clear_faults();
        oss.get("containers/1").unwrap();
    }

    #[test]
    fn metadata_probes_respect_faults() {
        let oss = Oss::in_memory();
        oss.put("containers/1", Bytes::from_static(b"x")).unwrap();
        oss.inject_fault(FaultPlan::KeyPrefix("containers/".into()));
        assert!(matches!(
            oss.exists("containers/1"),
            Err(SlimError::InjectedFault(_))
        ));
        assert!(matches!(
            oss.len("containers/1"),
            Err(SlimError::InjectedFault(_))
        ));
        assert!(oss.exists("recipes/other").is_ok());
        assert_eq!(oss.metrics().snapshot().injected_faults, 2);
        oss.clear_faults();
        assert!(oss.exists("containers/1").unwrap());
        assert_eq!(oss.len("containers/1").unwrap(), Some(1));
    }

    #[test]
    fn transient_and_throttle_faults_map_to_retryable_errors() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.inject_fault(FaultPlan::TransientProb {
            prefix: String::new(),
            prob: 1.0,
            seed: 3,
        });
        let err = oss.get("k").unwrap_err();
        assert!(matches!(err, SlimError::Transient(_)));
        assert!(err.is_retryable());
        oss.inject_fault(FaultPlan::Throttle { every_nth: 1 });
        let err = oss.get("k").unwrap_err();
        assert!(matches!(err, SlimError::Throttled(_)));
        assert!(err.is_retryable());
        oss.clear_faults();
        oss.get("k").unwrap();
    }

    #[test]
    fn latency_plan_charges_injected_delay() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.inject_fault(FaultPlan::Latency {
            prefix: String::new(),
            delay: std::time::Duration::from_millis(3),
        });
        let t0 = Instant::now();
        oss.get("k").unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(3));
        let s = oss.metrics().snapshot();
        assert!(s.injected_delay >= std::time::Duration::from_millis(3));
        assert_eq!(s.injected_faults, 0);
    }

    #[test]
    fn stored_bytes_prefix_accounts_correctly() {
        let oss = Oss::in_memory();
        oss.put("containers/1", Bytes::from(vec![0u8; 30])).unwrap();
        oss.put("containers/2", Bytes::from(vec![0u8; 20])).unwrap();
        oss.put("recipes/1", Bytes::from(vec![0u8; 7])).unwrap();
        assert_eq!(oss.stored_bytes_prefix("containers/"), 50);
        assert_eq!(oss.stored_bytes_prefix("recipes/"), 7);
        assert_eq!(oss.stored_bytes(), 57);
    }

    #[test]
    fn network_latency_is_charged() {
        let model = NetworkModel {
            request_latency: std::time::Duration::from_millis(5),
            channel_bandwidth: u64::MAX,
            channels: 4,
        };
        let oss = Oss::new(model);
        let t0 = Instant::now();
        oss.put("k", Bytes::from_static(b"x")).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        let s = oss.metrics().snapshot();
        assert!(s.net_time >= std::time::Duration::from_millis(5));
    }

    fn batch_keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("batch/{i:03}")).collect()
    }

    #[test]
    fn get_many_preserves_input_order_and_per_item_errors() {
        let oss = Oss::in_memory();
        let keys = batch_keys(10);
        for (i, k) in keys.iter().enumerate() {
            if i != 4 && i != 7 {
                oss.put(k, Bytes::from(vec![i as u8; i + 1])).unwrap();
            }
        }
        let results = oss.get_many(&keys);
        assert_eq!(results.len(), keys.len());
        for (i, r) in results.iter().enumerate() {
            if i == 4 || i == 7 {
                match r {
                    Err(SlimError::ObjectNotFound(k)) => assert_eq!(k, &keys[i]),
                    other => panic!("item {i}: expected ObjectNotFound, got {other:?}"),
                }
            } else {
                assert_eq!(r.as_ref().unwrap(), &Bytes::from(vec![i as u8; i + 1]));
            }
        }
        // Same counters as ten sequential gets: 8 hits, 2 misses.
        let s = oss.metrics().snapshot();
        assert_eq!(s.get_requests, 8);
    }

    #[test]
    fn len_and_delete_many_cover_the_batch() {
        let oss = Oss::in_memory();
        let keys = batch_keys(6);
        for k in &keys[..4] {
            oss.put(k, Bytes::from_static(b"xy")).unwrap();
        }
        let lens = oss.len_many(&keys);
        assert!(lens[..4].iter().all(|l| *l.as_ref().unwrap() == Some(2)));
        assert!(lens[4..].iter().all(|l| l.as_ref().unwrap().is_none()));
        for r in oss.delete_many(&keys) {
            r.unwrap(); // missing keys delete idempotently
        }
        assert_eq!(oss.object_count(), 0);
        assert_eq!(oss.metrics().snapshot().delete_requests, 6);
    }

    #[test]
    fn get_range_many_matches_sequential_ranges() {
        let oss = Oss::in_memory();
        oss.put("obj", Bytes::from_static(b"0123456789")).unwrap();
        let ranges: Vec<(String, u64, u64)> = vec![
            ("obj".into(), 0, 4),
            ("obj".into(), 4, 6),
            ("obj".into(), 9, 5), // out of bounds
            ("missing".into(), 0, 1),
        ];
        let results = oss.get_range_many(&ranges);
        assert_eq!(results[0].as_ref().unwrap(), &Bytes::from_static(b"0123"));
        assert_eq!(results[1].as_ref().unwrap(), &Bytes::from_static(b"456789"));
        assert!(matches!(
            results[2],
            Err(SlimError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(results[3], Err(SlimError::ObjectNotFound(_))));
    }

    #[test]
    fn batch_faults_follow_sequential_schedule() {
        // The same seeded plan must fail the same batch positions whether
        // the batch runs fanned out or item-by-item.
        let plan = |oss: &Oss| {
            oss.inject_fault(FaultPlan::TransientProb {
                prefix: "batch/".into(),
                prob: 0.5,
                seed: 0xabcd,
            })
        };
        let keys = batch_keys(32);
        let seed = |oss: &Oss| {
            for k in &keys {
                oss.put(k, Bytes::from_static(b"v")).unwrap();
            }
        };
        let batched = Oss::in_memory();
        seed(&batched);
        plan(&batched);
        let b: Vec<bool> = batched.get_many(&keys).iter().map(|r| r.is_ok()).collect();
        let sequential = Oss::in_memory();
        seed(&sequential);
        plan(&sequential);
        let s: Vec<bool> = keys.iter().map(|k| sequential.get(k).is_ok()).collect();
        assert_eq!(b, s, "fan-out must not perturb the fault schedule");
        assert!(b.iter().any(|ok| !ok), "plan fired at least once");
    }

    #[test]
    fn batch_fanout_is_bounded_by_the_channel_count() {
        let oss = Oss::new(NetworkModel {
            channels: 4,
            ..NetworkModel::instant()
        });
        let keys = batch_keys(8);
        for k in &keys {
            oss.put(k, Bytes::from_static(b"v")).unwrap();
        }
        for r in oss.get_many(&keys) {
            r.unwrap();
        }
        let hist = oss.metrics().batch_fanout.snapshot();
        assert_eq!(hist.max, 4, "fan-out never exceeds the channels");
        assert_eq!(oss.metrics().batch_items.get(), 8);
    }

    #[test]
    fn corrupt_read_fault_mangles_payload_and_counts() {
        use crate::fault::CorruptionKind;
        let oss = Oss::in_memory();
        let payload = Bytes::from(vec![0u8; 64]);
        oss.put("containers/1/data", payload.clone()).unwrap();
        oss.inject_fault(FaultPlan::CorruptRead {
            prefix: "containers/".into(),
            kind: CorruptionKind::BitFlip,
            seed: 42,
        });
        let got = oss.get("containers/1/data").unwrap();
        assert_ne!(got, payload, "bit flip must alter the payload");
        assert_eq!(got.len(), payload.len());
        // Writes and non-matching reads are unaffected.
        oss.put("recipes/a", Bytes::from_static(b"ok")).unwrap();
        assert_eq!(oss.get("recipes/a").unwrap(), Bytes::from_static(b"ok"));
        // Range reads are corrupted too.
        let range = oss.get_range("containers/1/data", 0, 16).unwrap();
        assert_eq!(range.len(), 16);
        // Batched reads draw from the same decision stream.
        let keys = vec!["containers/1/data".to_string()];
        let batched = oss.get_many(&keys);
        assert_ne!(batched[0].as_ref().unwrap(), &payload);
        assert!(oss.metrics().corruptions.get() >= 2);
        oss.clear_faults();
        assert_eq!(oss.get("containers/1/data").unwrap(), payload);
    }

    #[test]
    fn truncating_corruption_shortens_reads() {
        use crate::fault::CorruptionKind;
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from(vec![7u8; 32])).unwrap();
        oss.inject_fault(FaultPlan::CorruptRead {
            prefix: String::new(),
            kind: CorruptionKind::Truncate,
            seed: 5,
        });
        let got = oss.get("k").unwrap();
        assert!(got.len() < 32, "truncation drops at least one byte");
        assert!(got.iter().all(|&b| b == 7), "prefix bytes intact");
    }

    #[test]
    fn endpoint_routing_pins_and_round_robins() {
        let oss = Oss::in_memory();
        assert_eq!(oss.endpoints(), 1);
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.set_endpoints(0);
        assert_eq!(oss.endpoints(), 1, "clamped to at least one endpoint");
        oss.set_endpoints(2);
        // Fail only endpoint 1; a thread pinned to endpoint 0 never sees it,
        // one pinned to endpoint 1 always does.
        oss.inject_fault(FaultPlan::EndpointTransient {
            endpoint: 1,
            prob: 1.0,
            seed: 7,
        });
        {
            let _pin = crate::endpoint::pin(0);
            oss.get("k").unwrap();
            oss.get("k").unwrap();
        }
        {
            let _pin = crate::endpoint::pin(1);
            assert!(matches!(oss.get("k"), Err(SlimError::Transient(_))));
        }
        {
            let _pin = crate::endpoint::pin(3); // pins wrap modulo n
            assert!(matches!(oss.get("k"), Err(SlimError::Transient(_))));
        }
        // Unpinned ops alternate endpoints round-robin, so roughly half of
        // them land on the sick endpoint.
        let outcomes: Vec<bool> = (0..8).map(|_| oss.get("k").is_ok()).collect();
        assert!(outcomes.iter().any(|ok| *ok));
        assert!(outcomes.iter().any(|ok| !ok));
        oss.clear_faults();
    }

    #[test]
    fn single_endpoint_batches_ignore_endpoint_plans() {
        let oss = Oss::in_memory();
        let keys = batch_keys(4);
        for k in &keys {
            oss.put(k, Bytes::from_static(b"v")).unwrap();
        }
        oss.inject_fault(FaultPlan::EndpointTransient {
            endpoint: 1,
            prob: 1.0,
            seed: 1,
        });
        for r in oss.get_many(&keys) {
            r.unwrap(); // everything resolves to endpoint 0
        }
    }

    #[test]
    fn empty_batches_are_free() {
        let oss = Oss::in_memory();
        assert!(oss.get_many(&[]).is_empty());
        assert!(oss.len_many(&[]).is_empty());
        assert!(oss.delete_many(&[]).is_empty());
        assert_eq!(oss.metrics().batch_calls.get(), 0);
    }
}
