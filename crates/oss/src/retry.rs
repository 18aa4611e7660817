//! Retrying object-store wrapper.
//!
//! Real object stores fail transiently (5xx, throttling, slow requests);
//! SLIMSTORE's L-nodes are stateless, so the OSS client is the single place
//! where those failures must be absorbed. [`RetryingStore`] wraps any
//! [`ObjectStore`] and re-issues operations that fail with a retryable
//! [`SlimError`] (see [`SlimError::is_retryable`]) under a [`RetryPolicy`]:
//! exponential backoff, deterministic jitter (seeded, so chaos tests are
//! replayable), an attempt budget, and an optional wall-clock deadline.
//!
//! Non-retryable errors (missing objects, corruption, injected hard faults)
//! pass through unchanged on the first attempt. When the budget is exhausted
//! the wrapper reports [`SlimError::Timeout`] carrying the operation, the
//! attempt count, and the last underlying error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use slim_telemetry::{Counter, Histogram, Registry, Scope};
use slim_types::rng::{mix64, unit_f64};
use slim_types::{Deadline, Result, SlimError};

use crate::metrics::MetricsSnapshot;
use crate::store::{only, ObjectStore};

/// Backoff/budget parameters of a [`RetryingStore`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum total attempts per operation (first try included). Zero is
    /// treated as one.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on a single backoff step.
    pub max_delay: Duration,
    /// Optional wall-clock budget per operation, covering all attempts and
    /// backoff. When the next backoff would cross it, the store gives up.
    pub deadline: Option<Duration>,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            deadline: Some(Duration::from_secs(30)),
            jitter_seed: 0x51e5_7041,
        }
    }
}

impl RetryPolicy {
    /// This policy with its jitter stream re-seeded by `salt`, so several
    /// wrapper instances built from one config draw *distinct* (still
    /// deterministic) jitter sequences and never back off in lockstep.
    pub fn salted(mut self, salt: u64) -> Self {
        self.jitter_seed = mix64(self.jitter_seed ^ salt);
        self
    }

    /// A policy that retries without sleeping — for tests, where the fault
    /// schedule (not wall time) is the variable under study.
    pub fn no_delay(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            deadline: None,
            jitter_seed: 0,
        }
    }

    /// Backoff before retry number `retry` (1-based): exponential growth
    /// capped at `max_delay`, scaled by a deterministic jitter factor in
    /// `[0.5, 1.0)` drawn from `jitter_seed` and the retry ordinal.
    pub fn backoff(&self, retry: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = retry.saturating_sub(1).min(32);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << exp.min(31))
            .min(self.max_delay);
        let jitter = 0.5 + 0.5 * unit_f64(mix64(self.jitter_seed.wrapping_add(retry as u64)));
        raw.mul_f64(jitter)
    }
}

/// A process-wide salt source for [`RetryPolicy::salted`]: each call yields
/// a fresh ordinal, so every retry wrapper a builder wires gets its own
/// jitter stream while replays of the whole process stay deterministic.
pub fn next_jitter_salt() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Retry counters of a [`RetryingStore`], shared across clones.
///
/// Registry-backed since PR 2: construct with [`RetryMetrics::new`] to
/// expose the counters under a shared telemetry scope (canonically
/// `"retry"`); the `Default` instance registers in a private registry.
#[derive(Debug, Clone)]
pub struct RetryMetrics {
    /// Attempts issued to the inner store (successes and failures).
    pub attempts: Counter,
    /// Re-issued operations (attempts beyond the first per operation).
    pub retries: Counter,
    /// Operations abandoned after exhausting the attempt/deadline budget.
    pub giveups: Counter,
    /// Nanoseconds spent sleeping in backoff.
    pub backoff_nanos: Counter,
    /// Payload bytes re-uploaded by retried PUT attempts. Attributed here —
    /// never to the inner store's `bytes_written` — so transient faults do
    /// not inflate the dedup-cost byte counters the paper's figures report.
    pub retry_bytes: Counter,
    /// Distribution of individual backoff sleeps. Named `backoff_wait_nanos`
    /// (not `backoff_nanos`) because the registry keeps one name per metric
    /// kind and `backoff_nanos` is already the cumulative counter above.
    pub backoff_wait: Histogram,
}

impl RetryMetrics {
    /// Register (or re-attach to) the retry counters under `scope`.
    pub fn new(scope: &Scope) -> Self {
        RetryMetrics {
            attempts: scope.counter("attempts"),
            retries: scope.counter("retries"),
            giveups: scope.counter("giveups"),
            backoff_nanos: scope.counter("backoff_nanos"),
            retry_bytes: scope.counter("retry_bytes"),
            backoff_wait: scope.histogram("backoff_wait_nanos"),
        }
    }

    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    pub fn giveups(&self) -> u64 {
        self.giveups.get()
    }

    pub fn attempts(&self) -> u64 {
        self.attempts.get()
    }

    pub fn retry_bytes(&self) -> u64 {
        self.retry_bytes.get()
    }
}

impl Default for RetryMetrics {
    fn default() -> Self {
        RetryMetrics::new(&Registry::new().scope("retry"))
    }
}

/// An [`ObjectStore`] decorator that retries retryable failures.
///
/// Composes with every other store in the crate: wrap a bare [`crate::Oss`],
/// a [`crate::NamespacedStore`], or a [`crate::LocalDiskOss`]; or wrap the
/// retrying store itself in a namespace. Cheap to clone (shared handle).
///
/// ```
/// use std::sync::Arc;
/// use slim_oss::{ObjectStore, Oss, RetryPolicy, RetryingStore};
/// let oss = Oss::in_memory();
/// let store = RetryingStore::new(Arc::new(oss), RetryPolicy::default());
/// store.put("k", bytes::Bytes::from_static(b"v")).unwrap();
/// assert_eq!(store.metrics_snapshot().unwrap().retries, 0);
/// ```
#[derive(Clone)]
pub struct RetryingStore {
    inner: Arc<dyn ObjectStore>,
    policy: RetryPolicy,
    metrics: Arc<RetryMetrics>,
}

impl RetryingStore {
    pub fn new(inner: Arc<dyn ObjectStore>, policy: RetryPolicy) -> Self {
        RetryingStore {
            inner,
            policy,
            metrics: Arc::new(RetryMetrics::default()),
        }
    }

    /// Like [`RetryingStore::new`], but the retry counters are registered
    /// under `scope` (canonically a `"retry"` scope of the shared
    /// registry) instead of a private one.
    pub fn with_telemetry(inner: Arc<dyn ObjectStore>, policy: RetryPolicy, scope: &Scope) -> Self {
        RetryingStore {
            inner,
            policy,
            metrics: Arc::new(RetryMetrics::new(scope)),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn ObjectStore> {
        &self.inner
    }

    /// Live retry counters.
    pub fn retry_metrics(&self) -> &RetryMetrics {
        &self.metrics
    }

    /// Run a batched operation under the retry policy with a *per-item*
    /// budget: each round re-issues only the still-retryable items as one
    /// batch to the inner store, so the fan-out below stays saturated while
    /// every item individually observes the sequential retry contract —
    /// non-retryable errors pass through on first sight, and an item that
    /// exhausts `max_attempts` (or the shared deadline) reports
    /// [`SlimError::Timeout`] with its own attempt count and last cause.
    /// Backoff is slept once per round, not once per pending item.
    ///
    /// `op` labels the operation in the timeout reports. `reupload` is an
    /// item's request payload size (non-zero only for PUT): every re-issued
    /// attempt sends the body again, and that volume is charged to
    /// `retry_bytes` rather than the inner store's byte counters.
    fn run_many<I: Clone, T>(
        &self,
        op: &str,
        items: &[I],
        key_of: impl Fn(&I) -> &str,
        reupload: impl Fn(&I) -> u64,
        f: impl Fn(&[I]) -> Vec<Result<T>>,
    ) -> Vec<Result<T>> {
        let start = Instant::now();
        let ambient = Deadline::current();
        let max_attempts = self.policy.max_attempts.max(1);
        let timeout = |item: &I, attempts: u32, last: String| -> Result<T> {
            self.metrics.giveups.inc();
            Err(SlimError::Timeout {
                op: format!("{op} {}", key_of(item)),
                attempts,
                last,
            })
        };
        // Ambient request deadline already spent: the caller's budget is
        // gone, so any OSS traffic is pure waste.
        if ambient.expired() {
            return items
                .iter()
                .map(|item| timeout(item, 0, "request deadline expired".into()))
                .collect();
        }
        self.metrics.attempts.add(items.len() as u64);
        let mut out = f(items);
        debug_assert_eq!(out.len(), items.len());
        let retryable = |result: &Result<T>| matches!(result, Err(err) if err.is_retryable());
        // The common case ends here: nothing pending, `out` returned as is.
        let mut pending: Vec<usize> = (0..out.len()).filter(|&i| retryable(&out[i])).collect();
        let mut attempt = 1u32;
        while !pending.is_empty() {
            // Sleeping past the policy's or the ambient deadline cannot
            // help: the retry would start with the budget already gone.
            let delay = self.policy.backoff(attempt);
            let mut spent = attempt >= max_attempts
                || self
                    .policy
                    .deadline
                    .is_some_and(|deadline| start.elapsed() + delay >= deadline)
                || ambient.would_exceed(delay);
            if !spent && !delay.is_zero() {
                std::thread::sleep(delay);
                self.metrics.backoff_nanos.add(delay.as_nanos() as u64);
                self.metrics.backoff_wait.record_duration(delay);
                spent = ambient.expired();
            }
            if spent {
                for &i in &pending {
                    let last = out[i].as_ref().err().expect("pending item holds an error");
                    out[i] = timeout(&items[i], attempt, last.to_string());
                }
                break;
            }
            self.metrics.retries.add(pending.len() as u64);
            self.metrics
                .retry_bytes
                .add(pending.iter().map(|&i| reupload(&items[i])).sum());
            attempt += 1;
            self.metrics.attempts.add(pending.len() as u64);
            let batch: Vec<I> = pending.iter().map(|&i| items[i].clone()).collect();
            let results = f(&batch);
            debug_assert_eq!(results.len(), batch.len());
            for (result, &i) in results.into_iter().zip(&pending) {
                out[i] = result;
            }
            pending.retain(|&i| retryable(&out[i]));
        }
        out
    }

    /// A single bodiless operation on `key` is a batch of one.
    fn run_one<T>(&self, op: &str, key: &str, f: impl Fn(&str) -> Result<T>) -> Result<T> {
        only(self.run_many(op, &[key], |key| key, |_| 0, |batch| vec![f(batch[0])]))
    }
}

impl ObjectStore for RetryingStore {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        // Bytes clones are refcount bumps, so retrying a PUT is free.
        only(self.run_many(
            "put",
            &[(key, value)],
            |(key, _)| key,
            |(_, value)| value.len() as u64,
            |batch| vec![self.inner.put(batch[0].0, batch[0].1.clone())],
        ))
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.run_one("get", key, |key| self.inner.get(key))
    }

    fn get_raw(&self, key: &str) -> Result<Bytes> {
        // Detection reads must see the primary as stored: forward to the
        // inner `get_raw`, never to a healing `get`.
        self.run_one("get", key, |key| self.inner.get_raw(key))
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        self.run_one("get_range", key, |key| {
            self.inner.get_range(key, start, len)
        })
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.run_one("delete", key, |key| self.inner.delete(key))
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.run_one("head", key, |key| self.inner.exists(key))
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        self.run_one("head", key, |key| self.inner.len(key))
    }

    fn get_many(&self, keys: &[String]) -> Vec<Result<Bytes>> {
        self.run_many(
            "get",
            keys,
            |k| k.as_str(),
            |_| 0,
            |batch| self.inner.get_many(batch),
        )
    }

    fn get_range_many(&self, ranges: &[(String, u64, u64)]) -> Vec<Result<Bytes>> {
        self.run_many(
            "get_range",
            ranges,
            |(key, _, _)| key.as_str(),
            |_| 0,
            |batch| self.inner.get_range_many(batch),
        )
    }

    fn len_many(&self, keys: &[String]) -> Vec<Result<Option<u64>>> {
        self.run_many(
            "head",
            keys,
            |k| k.as_str(),
            |_| 0,
            |batch| self.inner.len_many(batch),
        )
    }

    fn delete_many(&self, keys: &[String]) -> Vec<Result<()>> {
        self.run_many(
            "delete",
            keys,
            |k| k.as_str(),
            |_| 0,
            |batch| self.inner.delete_many(batch),
        )
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    /// Inner traffic counters overlaid with this wrapper's retry/giveup
    /// counts and re-upload volume, so one snapshot carries the whole story.
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let mut snapshot = self.inner.metrics_snapshot().unwrap_or_default();
        snapshot.retries += self.metrics.retries();
        snapshot.giveups += self.metrics.giveups();
        snapshot.retry_bytes += self.metrics.retry_bytes();
        Some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::store::Oss;

    fn retrying(oss: &Oss, max_attempts: u32) -> RetryingStore {
        RetryingStore::new(Arc::new(oss.clone()), RetryPolicy::no_delay(max_attempts))
    }

    #[test]
    fn passes_through_without_faults() {
        let oss = Oss::in_memory();
        let store = retrying(&oss, 4);
        store.put("k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v"));
        assert!(store.exists("k").unwrap());
        assert_eq!(store.len("k").unwrap(), Some(1));
        assert_eq!(store.list(""), vec!["k".to_string()]);
        store.delete("k").unwrap();
        assert_eq!(store.retry_metrics().retries(), 0);
        assert_eq!(store.retry_metrics().giveups(), 0);
    }

    #[test]
    fn retries_transient_failures_to_success() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        let store = retrying(&oss, 4);
        // Throttle every 2nd op: the first store attempt lands on op 2 and
        // fails; the retry lands on op 3 and succeeds.
        oss.inject_fault(FaultPlan::Throttle { every_nth: 2 });
        oss.get("k").unwrap(); // op 1: advance the throttle counter
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v"));
        assert_eq!(store.retry_metrics().retries(), 1);
        assert_eq!(store.retry_metrics().giveups(), 0);
        let snap = store.metrics_snapshot().unwrap();
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.giveups, 0);
        assert!(snap.injected_faults >= 1);
    }

    #[test]
    fn gives_up_after_attempt_budget_with_timeout() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.inject_fault(FaultPlan::TransientProb {
            prefix: String::new(),
            prob: 1.0,
            seed: 9,
        });
        let store = retrying(&oss, 3);
        let err = store.get("k").unwrap_err();
        match &err {
            SlimError::Timeout { attempts, last, .. } => {
                assert_eq!(*attempts, 3);
                assert!(last.contains("transient"), "last cause preserved: {last}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(err.is_retryable(), "outer layers may still retry");
        assert_eq!(store.retry_metrics().giveups(), 1);
        assert_eq!(store.retry_metrics().retries(), 2);
    }

    #[test]
    fn single_op_is_the_one_item_batch() {
        // Twin stores under the same seeded plan: `get(k)` on one and
        // `get_many(&[k])` on the other walk the same loop, so they end with
        // the same outcomes, the same timeout text and the same counters.
        let twin = || {
            let oss = Oss::in_memory();
            for i in 0..32 {
                oss.put(&format!("k/{i}"), Bytes::from_static(b"v"))
                    .unwrap();
            }
            oss.inject_fault(FaultPlan::TransientProb {
                prefix: String::new(),
                prob: 0.6,
                seed: 0xBA7C4,
            });
            retrying(&oss, 3)
        };
        let (single, batched) = (twin(), twin());
        for i in 0..32 {
            let key = format!("k/{i}");
            let one = single.get(&key);
            let many = batched.get_many(std::slice::from_ref(&key)).pop().unwrap();
            assert_eq!(format!("{one:?}"), format!("{many:?}"), "{key}");
        }
        let (a, b) = (single.retry_metrics(), batched.retry_metrics());
        assert!(a.retries() > 0 && a.giveups() > 0, "plan exercises both");
        assert_eq!(
            (a.attempts(), a.retries(), a.giveups()),
            (b.attempts(), b.retries(), b.giveups())
        );
    }

    #[test]
    fn get_raw_retries_without_healing() {
        // Oss -> RedundantStore -> RetryingStore, as the builder stacks them:
        // a detection read must see the primary's damaged bytes, not a
        // read-repaired copy.
        use crate::redundant::RedundantStore;
        use slim_types::{crc, layout, ContainerId};
        let oss = Oss::in_memory();
        let redundant = Arc::new(RedundantStore::new(Arc::new(oss.clone())));
        let store = RetryingStore::new(redundant.clone(), RetryPolicy::no_delay(4));
        let key = layout::container_data(ContainerId(1));
        let good = crc::seal(&[0xAB; 100]);
        oss.put(&layout::replica_key(&key), good.clone()).unwrap();
        let mut bad = good.to_vec();
        bad[10] ^= 0xFF;
        let bad = Bytes::from(bad);
        oss.put(&key, bad.clone()).unwrap();

        // One transient fault on the way: the raw read is retried, not healed.
        oss.inject_fault(FaultPlan::Throttle { every_nth: 5 });
        for _ in 0..4 {
            oss.get("warmup").unwrap_err(); // the raw read is op 5
        }
        assert_eq!(
            store.get_raw(&key).unwrap(),
            bad,
            "damage reported as stored"
        );
        oss.clear_faults();
        assert_eq!(store.retry_metrics().retries(), 1);
        assert_eq!(redundant.metrics().repairs_written.get(), 0);
        assert_eq!(oss.get(&key).unwrap(), bad, "primary untouched");

        assert_eq!(store.get(&key).unwrap(), good, "a plain get heals");
        assert_eq!(redundant.metrics().repairs_written.get(), 1);
    }

    #[test]
    fn non_retryable_errors_pass_through_immediately() {
        let oss = Oss::in_memory();
        let store = retrying(&oss, 5);
        assert!(matches!(
            store.get("missing"),
            Err(SlimError::ObjectNotFound(_))
        ));
        oss.inject_fault(FaultPlan::KeyPrefix("containers/".into()));
        assert!(matches!(
            store.get("containers/1"),
            Err(SlimError::InjectedFault(_))
        ));
        assert_eq!(store.retry_metrics().retries(), 0);
        assert_eq!(store.retry_metrics().giveups(), 0);
    }

    #[test]
    fn corrupt_errors_are_not_retried() {
        // Corruption is durable state, not a transient fault: re-issuing the
        // request downloads the same damaged object. The wrapper must
        // surface `SlimError::Corrupt` on the first attempt and leave
        // healing to the G-node's quarantine/recovery plane.
        struct AlwaysCorrupt;
        impl ObjectStore for AlwaysCorrupt {
            fn put(&self, _: &str, _: Bytes) -> Result<()> {
                Ok(())
            }
            fn get(&self, key: &str) -> Result<Bytes> {
                Err(SlimError::corrupt("get", format!("bad checksum on {key}")))
            }
            fn get_range(&self, key: &str, _: u64, _: u64) -> Result<Bytes> {
                Err(SlimError::corrupt(
                    "get_range",
                    format!("bad checksum on {key}"),
                ))
            }
            fn delete(&self, _: &str) -> Result<()> {
                Ok(())
            }
            fn exists(&self, _: &str) -> Result<bool> {
                Ok(true)
            }
            fn len(&self, _: &str) -> Result<Option<u64>> {
                Ok(None)
            }
            fn list(&self, _: &str) -> Vec<String> {
                Vec::new()
            }
        }
        let store = RetryingStore::new(Arc::new(AlwaysCorrupt), RetryPolicy::no_delay(8));
        assert!(matches!(
            store.get("containers/1/data"),
            Err(SlimError::Corrupt { .. })
        ));
        let results = store.get_many(&["a".into(), "b".into()]);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(SlimError::Corrupt { .. }))));
        assert_eq!(store.retry_metrics().retries(), 0, "never retried");
        assert_eq!(store.retry_metrics().attempts(), 3, "one attempt per item");
        assert_eq!(store.retry_metrics().giveups(), 0);
    }

    #[test]
    fn deadline_bounds_total_time() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.inject_fault(FaultPlan::TransientProb {
            prefix: String::new(),
            prob: 1.0,
            seed: 1,
        });
        let policy = RetryPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(20),
            deadline: Some(Duration::from_millis(30)),
            jitter_seed: 0,
        };
        let store = RetryingStore::new(Arc::new(oss.clone()), policy);
        let t0 = Instant::now();
        let err = store.get("k").unwrap_err();
        assert!(matches!(err, SlimError::Timeout { .. }));
        assert!(t0.elapsed() < Duration::from_secs(2));
        assert_eq!(store.retry_metrics().giveups(), 1);
    }

    #[test]
    fn backoff_grows_capped_and_jittered_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            deadline: None,
            jitter_seed: 42,
        };
        let d1 = policy.backoff(1);
        let d2 = policy.backoff(2);
        let d5 = policy.backoff(5);
        assert!(d1 >= Duration::from_millis(5) && d1 < Duration::from_millis(10));
        assert!(d2 >= Duration::from_millis(10) && d2 < Duration::from_millis(20));
        assert!(d5 <= Duration::from_millis(100), "capped at max_delay");
        assert_eq!(
            policy.backoff(3),
            policy.backoff(3),
            "jitter is deterministic"
        );
        assert_eq!(RetryPolicy::no_delay(3).backoff(7), Duration::ZERO);
    }

    #[test]
    fn retried_put_bytes_go_to_retry_bytes_not_bytes_written() {
        // Regression (PR 2 satellite): under a seeded TransientProb plan,
        // re-uploaded PUT payloads must land in `retry_bytes`; the
        // `bytes_written` dedup-cost counter stays the exact logical
        // volume, as if no fault had ever fired.
        const N: u64 = 200;
        const L: u64 = 64;
        let oss = Oss::in_memory();
        oss.inject_fault(FaultPlan::TransientProb {
            prefix: String::new(),
            prob: 0.3,
            seed: 0xfeed,
        });
        let store = retrying(&oss, 50);
        let payload = Bytes::from(vec![7u8; L as usize]);
        for i in 0..N {
            store.put(&format!("obj/{i}"), payload.clone()).unwrap();
        }
        oss.clear_faults();

        let retries = store.retry_metrics().retries();
        assert!(retries > 0, "seeded plan must trigger retries");
        assert_eq!(store.retry_metrics().giveups(), 0);
        let snap = store.metrics_snapshot().unwrap();
        assert_eq!(snap.bytes_written, N * L, "no inflation from retries");
        assert_eq!(snap.retry_bytes, retries * L, "each re-issue re-sends L");
        // GET retries carry no payload.
        oss.inject_fault(FaultPlan::Throttle { every_nth: 2 });
        oss.get("obj/0").unwrap(); // advance counter so the next op faults
        store.get("obj/0").unwrap();
        assert_eq!(store.retry_metrics().retries(), retries + 1);
        assert_eq!(store.retry_metrics().retry_bytes(), retries * L);
    }

    #[test]
    fn telemetry_scope_exposes_retry_counters() {
        let registry = slim_telemetry::Registry::new();
        let oss = Oss::in_memory();
        oss.inject_fault(FaultPlan::Throttle { every_nth: 2 });
        let store = RetryingStore::with_telemetry(
            Arc::new(oss.clone()),
            RetryPolicy::no_delay(4),
            &registry.scope("retry"),
        );
        oss.put("warmup", Bytes::new()).unwrap();
        store.put("k", Bytes::from_static(b"payload")).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("retry.retries"), 1);
        assert_eq!(snap.counter("retry.retry_bytes"), 7);
        assert!(snap.counter("retry.attempts") >= 2);
    }

    #[test]
    fn get_many_retries_per_item_to_success() {
        let oss = Oss::in_memory();
        let keys: Vec<String> = (0..8).map(|i| format!("b/{i}")).collect();
        for k in &keys[..7] {
            oss.put(k, Bytes::from_static(b"v")).unwrap();
        }
        // Ops on `b/` fail transiently about half the time; `b/7` is also
        // missing entirely, which must surface as the non-retryable
        // ObjectNotFound once the fault schedule lets the request through.
        oss.inject_fault(FaultPlan::TransientProb {
            prefix: "b/".into(),
            prob: 0.5,
            seed: 0x1234,
        });
        let store = retrying(&oss, 20);
        let results = store.get_many(&keys);
        for (i, r) in results.iter().enumerate() {
            if i == 7 {
                assert!(
                    matches!(r, Err(SlimError::ObjectNotFound(_))),
                    "item 7: {r:?}"
                );
            } else {
                assert_eq!(r.as_ref().unwrap(), &Bytes::from_static(b"v"));
            }
        }
        assert_eq!(store.retry_metrics().giveups(), 0);
    }

    #[test]
    fn batched_giveups_report_per_item_timeouts() {
        let oss = Oss::in_memory();
        let keys: Vec<String> = (0..4).map(|i| format!("b/{i}")).collect();
        for k in &keys {
            oss.put(k, Bytes::from_static(b"v")).unwrap();
        }
        oss.inject_fault(FaultPlan::TransientProb {
            prefix: String::new(),
            prob: 1.0,
            seed: 5,
        });
        let store = retrying(&oss, 3);
        let results = store.get_many(&keys);
        for (r, k) in results.iter().zip(&keys) {
            match r {
                Err(SlimError::Timeout { op, attempts, .. }) => {
                    assert_eq!(*attempts, 3, "per-item budget honored");
                    assert_eq!(op, &format!("get {k}"));
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
        assert_eq!(store.retry_metrics().giveups(), 4);
        assert_eq!(store.retry_metrics().attempts(), 12, "4 items x 3 rounds");
        assert_eq!(
            store.retry_metrics().retries(),
            8,
            "rounds 2 and 3 re-issue all 4"
        );
    }

    #[test]
    fn batched_delete_and_len_pass_through_retry_layer() {
        let oss = Oss::in_memory();
        let keys: Vec<String> = (0..3).map(|i| format!("b/{i}")).collect();
        for k in &keys {
            oss.put(k, Bytes::from_static(b"xy")).unwrap();
        }
        let store = retrying(&oss, 4);
        let lens = store.len_many(&keys);
        assert!(lens.iter().all(|l| *l.as_ref().unwrap() == Some(2)));
        for r in store.delete_many(&keys) {
            r.unwrap();
        }
        assert_eq!(oss.object_count(), 0);
    }

    #[test]
    fn ambient_deadline_short_circuits_before_any_attempt() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        let store = retrying(&oss, 8);
        let before = oss.metrics().snapshot().get_requests;
        Deadline::within(Duration::ZERO).scope(|| {
            let err = store.get("k").unwrap_err();
            match err {
                SlimError::Timeout { attempts, .. } => assert_eq!(attempts, 0),
                other => panic!("expected Timeout, got {other:?}"),
            }
            let many = store.get_many(&["k".to_string()]);
            assert!(matches!(many[0], Err(SlimError::Timeout { .. })));
        });
        assert_eq!(
            oss.metrics().snapshot().get_requests,
            before,
            "expired deadline issued no OSS calls"
        );
        assert_eq!(store.retry_metrics().giveups(), 2);
        // Outside the scope the store works normally again.
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn ambient_deadline_bounds_backoff_sleeps() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.inject_fault(FaultPlan::TransientProb {
            prefix: String::new(),
            prob: 1.0,
            seed: 2,
        });
        let policy = RetryPolicy {
            max_attempts: 100,
            base_delay: Duration::from_secs(5),
            max_delay: Duration::from_secs(5),
            deadline: None,
            jitter_seed: 0,
        };
        let store = RetryingStore::new(Arc::new(oss.clone()), policy);
        let t0 = Instant::now();
        let err = Deadline::within(Duration::from_millis(50)).scope(|| store.get("k").unwrap_err());
        assert!(matches!(err, SlimError::Timeout { .. }));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "never slept a 5s backoff into a 50ms budget"
        );
        assert_eq!(store.retry_metrics().giveups(), 1);
    }

    #[test]
    fn salted_policies_draw_distinct_jitter_streams() {
        let base = RetryPolicy::default();
        let a = base.clone().salted(next_jitter_salt());
        let b = base.clone().salted(next_jitter_salt());
        assert_ne!(a.jitter_seed, b.jitter_seed, "salts differ per wrapper");
        assert_ne!(a.jitter_seed, base.jitter_seed);
        assert!(
            (1..=8).any(|r| a.backoff(r) != b.backoff(r)),
            "distinct streams decorrelate backoff"
        );
        // Still deterministic: the same salt reproduces the same stream.
        let c = base.clone().salted(7);
        let d = base.clone().salted(7);
        assert_eq!(c.jitter_seed, d.jitter_seed);
    }

    #[test]
    fn backoff_sleeps_feed_the_wait_histogram() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        oss.inject_fault(FaultPlan::Throttle { every_nth: 2 });
        let registry = slim_telemetry::Registry::new();
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(1),
            deadline: None,
            jitter_seed: 3,
        };
        let store =
            RetryingStore::with_telemetry(Arc::new(oss.clone()), policy, &registry.scope("retry"));
        oss.get("k").unwrap(); // advance the throttle counter to op 1
        store.get("k").unwrap(); // fails at op 2, retried at op 3
        let snap = registry.snapshot();
        let hist = &snap.histograms["retry.backoff_wait_nanos"];
        assert_eq!(hist.count, 1, "one backoff sleep recorded");
        assert!(snap.counter("retry.backoff_nanos") > 0);
    }

    #[test]
    fn put_retry_rewrites_value() {
        let oss = Oss::in_memory();
        oss.inject_fault(FaultPlan::Throttle { every_nth: 2 });
        let store = retrying(&oss, 4);
        oss.put("warmup", Bytes::new()).unwrap(); // counter: 1
        store.put("k", Bytes::from_static(b"payload")).unwrap(); // fails at 2, lands at 3
        oss.clear_faults();
        assert_eq!(oss.get("k").unwrap(), Bytes::from_static(b"payload"));
        assert_eq!(store.retry_metrics().retries(), 1);
    }
}
