//! Hedged requests and per-endpoint circuit breakers — the gray-failure
//! resilience plane.
//!
//! [`HedgedStore`] wraps any [`ObjectStore`] and treats the simulated
//! endpoints of the underlying [`crate::Oss`] as independently healthy
//! replicas of one service:
//!
//! * **Routing** — every operation is pinned to the healthiest endpoint
//!   whose circuit breaker admits it ([`crate::HealthTracker`] scores,
//!   deterministic lowest-index tie-break).
//! * **Hedging** — idempotent reads (`get`, `get_range`, `len` and their
//!   batch forms) issue a *backup* request on the next-healthiest endpoint
//!   once the primary has been outstanding longer than a live quantile of
//!   observed read latency; the first success wins and the loser is left to
//!   finish detached. A read that fails fast with a retryable error fails
//!   over to the backup immediately instead of waiting out the delay.
//! * **Breaking** — consecutive endpoint-level failures open that
//!   endpoint's breaker (Closed → Open → HalfOpen with seeded probe
//!   admission); calls are shed with [`SlimError::CircuitOpen`] only when
//!   *every* endpoint refuses.
//! * **Deadlines** — the ambient [`Deadline`] bounds everything: an expired
//!   deadline refuses the call before any request is issued, and hedge
//!   waits never sleep past the remaining budget.
//!
//! The plane deliberately stays inert on fast stores: until
//! [`HedgePolicy::min_observations`] reads have been pooled *and* the
//! hedge quantile clears [`HedgePolicy::activation_floor`], reads take the
//! direct single-attempt path — hedging a store that answers in
//! microseconds only adds load. Writes and deletes are routed and health-
//! scored but never hedged (one attempt, no duplication).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use slim_telemetry::{Counter, Histogram, Registry, Scope};
use slim_types::rng::{mix64, unit_f64};
use slim_types::{Deadline, Result, SlimError};

use crate::endpoint;
use crate::health::HealthTracker;
use crate::store::{only, ObjectStore};

/// Tuning of one endpoint's circuit breaker.
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Consecutive endpoint-level failures that open the breaker.
    pub failure_threshold: u32,
    /// Consultations shed while Open before the breaker half-opens.
    pub open_ops: u64,
    /// Probability a HalfOpen consultation is admitted as a probe
    /// (seeded, deterministic per consultation ordinal).
    pub probe_prob: f64,
    /// Consecutive successful probes that close the breaker again.
    pub success_to_close: u32,
    /// Seed of the probe-admission stream.
    pub seed: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 8,
            open_ops: 16,
            probe_prob: 0.5,
            success_to_close: 3,
            seed: 0x5EED_B4EA_4E85_0001,
        }
    }
}

/// Observable state of one endpoint's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerStage {
    /// Healthy: every call admitted.
    Closed,
    /// Sick: calls shed until `open_ops` consultations have passed.
    Open,
    /// Recovering: seeded fraction of calls admitted as probes.
    HalfOpen,
}

#[derive(Debug)]
struct EndpointBreaker {
    stage: BreakerStage,
    /// Consecutive failures while Closed.
    failures: u32,
    /// Consultations seen while Open.
    waited: u64,
    /// Consecutive probe successes while HalfOpen.
    successes: u32,
    /// Probe-admission draw ordinal (per endpoint, monotonic).
    draws: u64,
}

/// Per-endpoint circuit breakers with deterministic, op-count-driven
/// transitions (no wall clocks: simulation runs replay exactly).
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    states: Vec<Mutex<EndpointBreaker>>,
    opened: Counter,
    closed: Counter,
    probes: Counter,
    shed: Counter,
}

impl CircuitBreaker {
    /// Breakers for `endpoints` endpoints with counters in a private
    /// registry.
    pub fn new(endpoints: usize, policy: BreakerPolicy) -> Self {
        CircuitBreaker::with_telemetry(endpoints, policy, &Registry::new().scope("oss"))
    }

    /// Breakers whose counters live under `scope` as `breaker.{opened,
    /// closed,probes,shed}` (canonically `oss.breaker.*`).
    pub fn with_telemetry(endpoints: usize, mut policy: BreakerPolicy, scope: &Scope) -> Self {
        policy.failure_threshold = policy.failure_threshold.max(1);
        policy.open_ops = policy.open_ops.max(1);
        policy.success_to_close = policy.success_to_close.max(1);
        let counter = |name: &str| scope.counter(&format!("breaker.{name}"));
        CircuitBreaker {
            states: (0..endpoints.max(1))
                .map(|_| {
                    Mutex::new(EndpointBreaker {
                        stage: BreakerStage::Closed,
                        failures: 0,
                        waited: 0,
                        successes: 0,
                        draws: 0,
                    })
                })
                .collect(),
            policy,
            opened: counter("opened"),
            closed: counter("closed"),
            probes: counter("probes"),
            shed: counter("shed"),
        }
    }

    /// Current stage of one endpoint's breaker.
    pub fn stage(&self, endpoint: usize) -> BreakerStage {
        self.states
            .get(endpoint)
            .map_or(BreakerStage::Closed, |s| s.lock().stage)
    }

    /// Consult the breaker for one prospective call. Open breakers count
    /// the consultation toward half-opening; HalfOpen breakers draw the
    /// seeded probe-admission stream. Stateful by design — every
    /// consultation advances the deterministic schedule.
    pub fn admits(&self, endpoint: usize) -> bool {
        let Some(state) = self.states.get(endpoint) else {
            return true;
        };
        let mut st = state.lock();
        match st.stage {
            BreakerStage::Closed => true,
            BreakerStage::Open => {
                st.waited += 1;
                if st.waited < self.policy.open_ops {
                    return false;
                }
                st.stage = BreakerStage::HalfOpen;
                st.successes = 0;
                self.probe_draw(endpoint, &mut st)
            }
            BreakerStage::HalfOpen => self.probe_draw(endpoint, &mut st),
        }
    }

    fn probe_draw(&self, endpoint: usize, st: &mut EndpointBreaker) -> bool {
        st.draws += 1;
        let x = self
            .policy
            .seed
            .wrapping_add((endpoint as u64) << 32)
            .wrapping_add(st.draws);
        let admit = unit_f64(mix64(x)) < self.policy.probe_prob;
        if admit {
            self.probes.inc();
        }
        admit
    }

    /// Fold the outcome of an admitted call back into the breaker.
    /// `healthy` means the *endpoint* behaved (data-level misses like
    /// `ObjectNotFound` count as healthy).
    pub fn record(&self, endpoint: usize, healthy: bool) {
        let Some(state) = self.states.get(endpoint) else {
            return;
        };
        let mut st = state.lock();
        match st.stage {
            BreakerStage::Closed => {
                if healthy {
                    st.failures = 0;
                } else {
                    st.failures += 1;
                    if st.failures >= self.policy.failure_threshold {
                        st.stage = BreakerStage::Open;
                        st.waited = 0;
                        self.opened.inc();
                    }
                }
            }
            BreakerStage::HalfOpen => {
                if healthy {
                    st.successes += 1;
                    if st.successes >= self.policy.success_to_close {
                        st.stage = BreakerStage::Closed;
                        st.failures = 0;
                        self.closed.inc();
                    }
                } else {
                    st.stage = BreakerStage::Open;
                    st.waited = 0;
                    self.opened.inc();
                }
            }
            // A late result from a call admitted before the breaker opened;
            // the Open countdown is consultation-driven, so nothing to do.
            BreakerStage::Open => {}
        }
    }

    /// Count one call shed because every endpoint refused.
    fn record_shed(&self) {
        self.shed.inc();
    }
}

/// Tuning of the hedged-read plane.
#[derive(Debug, Clone)]
pub struct HedgePolicy {
    /// Master switch; `false` makes the wrapper a recording pass-through.
    pub enabled: bool,
    /// Endpoints the underlying store models (must match
    /// [`crate::Oss::set_endpoints`]). Hedging needs at least two.
    pub endpoints: usize,
    /// Latency quantile the hedge delay tracks.
    pub hedge_quantile: f64,
    /// Clamp bounds of the derived hedge delay.
    pub min_delay: Duration,
    pub max_delay: Duration,
    /// Pooled successful reads required before hedging can activate.
    pub min_observations: u64,
    /// Hedging stays inert while the hedge quantile sits below this floor —
    /// a store this fast only loses capacity to duplicate requests.
    pub activation_floor: Duration,
    /// Seed of the tie-break stream (both attempts succeeded in the same
    /// scheduling quantum).
    pub seed: u64,
    /// Per-endpoint circuit-breaker tuning.
    pub breaker: BreakerPolicy,
}

impl HedgePolicy {
    /// Defaults for a store modelling `n` endpoints; hedging enabled iff
    /// there are at least two.
    pub fn for_endpoints(n: usize) -> Self {
        HedgePolicy {
            enabled: n > 1,
            endpoints: n.max(1),
            hedge_quantile: 0.95,
            min_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(20),
            min_observations: 32,
            activation_floor: Duration::from_millis(1),
            seed: 0x5EED_4ED6_E000_0001,
            breaker: BreakerPolicy::default(),
        }
    }
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy::for_endpoints(2)
    }
}

struct HedgeMetrics {
    issued: Counter,
    won: Counter,
    wasted: Counter,
    failovers: Counter,
    deadline_refused: Counter,
    delay_nanos: Histogram,
    read_nanos: Histogram,
}

impl HedgeMetrics {
    fn new(scope: &Scope) -> Self {
        let counter = |name: &str| scope.counter(&format!("hedge.{name}"));
        let histogram = |name: &str| scope.histogram(&format!("hedge.{name}"));
        HedgeMetrics {
            issued: counter("issued"),
            won: counter("won"),
            wasted: counter("wasted"),
            failovers: counter("failovers"),
            deadline_refused: counter("deadline_refused"),
            delay_nanos: histogram("delay_nanos"),
            read_nanos: histogram("read_nanos"),
        }
    }
}

/// Whether an error indicts the *endpoint* (retryable elsewhere) rather
/// than the data. Data-level outcomes — missing objects, bad ranges,
/// corrupt payloads — would fail identically on every endpoint.
fn endpoint_sick(err: &SlimError) -> bool {
    matches!(
        err,
        SlimError::Transient(_)
            | SlimError::Throttled(_)
            | SlimError::Timeout { .. }
            | SlimError::Overloaded(_)
            | SlimError::InjectedFault(_)
    )
}

fn expired_err(op: &str) -> SlimError {
    SlimError::Timeout {
        op: op.to_string(),
        attempts: 0,
        last: "deadline expired before issuing the request".into(),
    }
}

fn circuit_open_err(op: &str) -> SlimError {
    SlimError::CircuitOpen(format!("{op}: every endpoint's breaker refused the call"))
}

/// The same refusal for every item of a call that was never issued.
fn refuse<T>(items: usize, err: impl Fn() -> SlimError) -> Vec<Result<T>> {
    (0..items).map(|_| Err(err())).collect()
}

fn sick_count<T>(results: &[Result<T>]) -> usize {
    results
        .iter()
        .filter(|r| matches!(r, Err(e) if endpoint_sick(e)))
        .count()
}

struct Shared {
    inner: Arc<dyn ObjectStore>,
    policy: HedgePolicy,
    health: HealthTracker,
    breaker: CircuitBreaker,
    metrics: HedgeMetrics,
    /// Tie-break draw ordinal.
    ties: AtomicU64,
}

impl Shared {
    /// Run one whole-batch attempt pinned to `endpoint`, folding latency and
    /// endpoint health into the tracker and breaker; health sees the
    /// per-item latency so batch size does not distort endpoint scores.
    /// `pooled` also feeds that latency to the hedge-delay quantile.
    fn attempt_batch<T>(
        &self,
        endpoint: usize,
        items: usize,
        pooled: bool,
        call: impl FnOnce() -> Vec<Result<T>>,
    ) -> Vec<Result<T>> {
        let _pin = endpoint::pin(endpoint);
        let start = Instant::now();
        let results = call();
        let per_item = start.elapsed() / items.max(1) as u32;
        let healthy = sick_count(&results) == 0;
        if pooled {
            self.health.record(endpoint, per_item, healthy);
        } else {
            self.health.record_unpooled(endpoint, per_item, healthy);
        }
        self.breaker.record(endpoint, healthy);
        results
    }

    /// Healthiest admitted endpoint (primary) and the next one (backup).
    fn route(&self) -> (Option<usize>, Option<usize>) {
        let mut admitted = self
            .health
            .ranked()
            .into_iter()
            .filter(|&e| self.breaker.admits(e));
        let primary = admitted.next();
        let backup = admitted.next();
        (primary, backup)
    }

    /// Current hedge delay, if the plane has warmed up past its
    /// activation thresholds.
    fn hedge_delay(&self) -> Option<Duration> {
        self.health.hedge_delay(
            self.policy.hedge_quantile,
            self.policy.min_delay,
            self.policy.max_delay,
            self.policy.min_observations,
            self.policy.activation_floor,
        )
    }
}

/// Hedging/breaker wrapper around any [`ObjectStore`]. Cheap to clone.
#[derive(Clone)]
pub struct HedgedStore {
    shared: Arc<Shared>,
}

impl HedgedStore {
    /// Wrap `inner` with metrics in a private registry.
    pub fn new(inner: Arc<dyn ObjectStore>, policy: HedgePolicy) -> Self {
        HedgedStore::with_telemetry(inner, policy, &Registry::new().scope("oss"))
    }

    /// Wrap `inner` with metrics under `scope` (canonically `"oss"`,
    /// yielding `oss.hedge.*`, `oss.breaker.*` and `oss.health.*`).
    pub fn with_telemetry(inner: Arc<dyn ObjectStore>, policy: HedgePolicy, scope: &Scope) -> Self {
        let endpoints = policy.endpoints.max(1);
        HedgedStore {
            shared: Arc::new(Shared {
                inner,
                health: HealthTracker::with_telemetry(endpoints, scope),
                breaker: CircuitBreaker::with_telemetry(endpoints, policy.breaker.clone(), scope),
                metrics: HedgeMetrics::new(scope),
                policy,
                ties: AtomicU64::new(0),
            }),
        }
    }

    /// The endpoint health tracker (scores, hedge-delay pool).
    pub fn health(&self) -> &HealthTracker {
        &self.shared.health
    }

    /// The per-endpoint circuit breakers.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.shared.breaker
    }

    /// A hedgeable read of `items` objects (a single read is a batch of
    /// one): deadline gate, health routing, and — once the delay quantile
    /// is live — the primary/backup race.
    fn read_many<T: Send + 'static>(
        &self,
        op: &'static str,
        items: usize,
        call: impl Fn() -> Vec<Result<T>> + Send + Sync + 'static,
    ) -> Vec<Result<T>> {
        let deadline = Deadline::current();
        if deadline.expired() {
            self.shared.metrics.deadline_refused.inc();
            return refuse(items, || expired_err(op));
        }
        let started = Instant::now();
        let shared = &self.shared;
        let results = if !shared.policy.enabled || shared.policy.endpoints <= 1 || items == 0 {
            call()
        } else {
            match shared.route() {
                (None, _) => {
                    shared.breaker.record_shed();
                    refuse(items, || circuit_open_err(op))
                }
                (Some(primary), backup) => match (shared.hedge_delay(), backup) {
                    (Some(delay), Some(backup)) => {
                        self.race(op, items, deadline, (primary, backup), delay, call)
                    }
                    // Cold/fast store, or no second endpoint admitted: one
                    // attempt on the chosen endpoint, in the caller's thread.
                    _ => shared.attempt_batch(primary, items, items == 1, call),
                },
            }
        };
        shared.metrics.read_nanos.record_duration(started.elapsed());
        results
    }

    /// The race: the whole batch runs on `primary`; once it has been
    /// outstanding for the hedge delay it also runs on `backup`, and the
    /// first clean batch wins. A batch that completes with retryable
    /// per-item errors waits for (or triggers) its twin and the cleaner
    /// batch is returned. A single read's latency feeds the hedge-delay
    /// pool; a batch's per-item latency is not comparable and does not.
    fn race<T: Send + 'static>(
        &self,
        op: &'static str,
        items: usize,
        deadline: Deadline,
        (primary, backup): (usize, usize),
        delay: Duration,
        call: impl Fn() -> Vec<Result<T>> + Send + Sync + 'static,
    ) -> Vec<Result<T>> {
        let shared = self.shared.clone();
        let call = Arc::new(call);
        let (tx, rx) = mpsc::channel::<(bool, Vec<Result<T>>)>();
        let spawn = |endpoint: usize, is_hedge: bool| {
            let shared = shared.clone();
            let call = call.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let results = shared.attempt_batch(endpoint, items, items == 1, || call());
                let _ = tx.send((is_hedge, results));
            });
        };
        spawn(primary, false);
        // A batch amortizes its round-trips over parallel channels, so the
        // single-read quantile is scaled by the expected number of waves.
        let wait = delay
            .saturating_mul(items.div_ceil(8).min(u32::MAX as usize) as u32)
            .min(shared.policy.max_delay.saturating_mul(8));
        let wait = deadline.remaining().map_or(wait, |rem| wait.min(rem));
        let recv_bounded = |rx: &mpsc::Receiver<(bool, Vec<Result<T>>)>| match deadline.remaining()
        {
            None => rx.recv().ok(),
            Some(rem) if rem.is_zero() => None,
            Some(rem) => rx.recv_timeout(rem).ok(),
        };
        match rx.recv_timeout(wait) {
            // Clean, or failed at the data level: hedging won't help.
            Ok((_, results)) if sick_count(&results) == 0 => results,
            Ok((_, results)) => {
                // Primary failed fast with retryable errors: fail the whole
                // batch over immediately instead of waiting out the delay,
                // and keep the cleaner outcome.
                shared.metrics.failovers.inc();
                spawn(backup, true);
                drop(tx);
                match recv_bounded(&rx) {
                    Some((_, twin)) if sick_count(&twin) < sick_count(&results) => twin,
                    _ => results,
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // The primary has been outstanding past the hedge delay.
                shared.metrics.issued.inc();
                shared.metrics.delay_nanos.record_duration(wait);
                spawn(backup, true);
                drop(tx);
                let Some((first_hedge, first)) = recv_bounded(&rx) else {
                    return refuse(items, || expired_err(op));
                };
                let (from_hedge, results) = if sick_count(&first) == 0 {
                    match rx.try_recv() {
                        // Both results already queued: a seeded coin decides
                        // so the tie-break replays deterministically.
                        Ok((twin_hedge, twin)) if sick_count(&twin) == 0 => {
                            let ordinal = shared.ties.fetch_add(1, Ordering::Relaxed);
                            let pick_hedge =
                                mix64(shared.policy.seed.wrapping_add(ordinal)) & 1 == 1;
                            if pick_hedge == twin_hedge {
                                (twin_hedge, twin)
                            } else {
                                (first_hedge, first)
                            }
                        }
                        _ => (first_hedge, first),
                    }
                } else {
                    // Keep waiting: the other attempt may still succeed.
                    match recv_bounded(&rx) {
                        Some((twin_hedge, twin)) if sick_count(&twin) < sick_count(&first) => {
                            (twin_hedge, twin)
                        }
                        _ => (first_hedge, first),
                    }
                };
                if from_hedge {
                    shared.metrics.won.inc();
                } else {
                    shared.metrics.wasted.inc();
                }
                results
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("primary batch sender held until after the race")
            }
        }
    }

    /// A routed, non-hedged operation (writes, deletes, metadata probes):
    /// deadline gate, endpoint selection, one attempt.
    fn routed_many<T>(
        &self,
        op: &'static str,
        items: usize,
        call: impl FnOnce() -> Vec<Result<T>>,
    ) -> Vec<Result<T>> {
        let deadline = Deadline::current();
        if deadline.expired() {
            self.shared.metrics.deadline_refused.inc();
            return refuse(items, || expired_err(op));
        }
        let shared = &self.shared;
        if !shared.policy.enabled || shared.policy.endpoints <= 1 || items == 0 {
            return call();
        }
        match shared.route().0 {
            Some(endpoint) => shared.attempt_batch(endpoint, items, false, call),
            None => {
                shared.breaker.record_shed();
                refuse(items, || circuit_open_err(op))
            }
        }
    }
}

impl ObjectStore for HedgedStore {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        only(self.routed_many("put", 1, || vec![self.shared.inner.put(key, value)]))
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let inner = self.shared.inner.clone();
        let key = key.to_string();
        only(self.read_many("get", 1, move || vec![inner.get(&key)]))
    }

    fn get_raw(&self, key: &str) -> Result<Bytes> {
        // Integrity sweeps want the primary's exact bytes; no routing, no
        // hedging, no health accounting.
        self.shared.inner.get_raw(key)
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        let inner = self.shared.inner.clone();
        let key = key.to_string();
        only(self.read_many("get", 1, move || vec![inner.get_range(&key, start, len)]))
    }

    fn delete(&self, key: &str) -> Result<()> {
        only(self.routed_many("delete", 1, || vec![self.shared.inner.delete(key)]))
    }

    fn exists(&self, key: &str) -> Result<bool> {
        only(self.routed_many("head", 1, || vec![self.shared.inner.exists(key)]))
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        let inner = self.shared.inner.clone();
        let key = key.to_string();
        only(self.read_many("head", 1, move || vec![inner.len(&key)]))
    }

    fn get_many(&self, keys: &[String]) -> Vec<Result<Bytes>> {
        let inner = self.shared.inner.clone();
        let keys = keys.to_vec();
        self.read_many("get", keys.len(), move || inner.get_many(&keys))
    }

    fn get_range_many(&self, ranges: &[(String, u64, u64)]) -> Vec<Result<Bytes>> {
        let inner = self.shared.inner.clone();
        let ranges = ranges.to_vec();
        self.read_many("get", ranges.len(), move || inner.get_range_many(&ranges))
    }

    fn len_many(&self, keys: &[String]) -> Vec<Result<Option<u64>>> {
        let inner = self.shared.inner.clone();
        let keys = keys.to_vec();
        self.read_many("head", keys.len(), move || inner.len_many(&keys))
    }

    fn delete_many(&self, keys: &[String]) -> Vec<Result<()>> {
        self.routed_many("delete", keys.len(), || self.shared.inner.delete_many(keys))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.shared.inner.list(prefix)
    }

    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        self.shared.inner.metrics_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::store::Oss;

    fn oss_with_endpoints(n: usize) -> Oss {
        let oss = Oss::in_memory();
        oss.set_endpoints(n);
        oss
    }

    #[test]
    fn breaker_trips_half_opens_and_closes() {
        let policy = BreakerPolicy {
            failure_threshold: 3,
            open_ops: 4,
            probe_prob: 1.0, // every half-open consultation probes
            success_to_close: 2,
            seed: 1,
        };
        let br = CircuitBreaker::new(1, policy);
        assert_eq!(br.stage(0), BreakerStage::Closed);
        for _ in 0..3 {
            assert!(br.admits(0));
            br.record(0, false);
        }
        assert_eq!(br.stage(0), BreakerStage::Open);
        for _ in 0..3 {
            assert!(!br.admits(0), "open breaker sheds");
        }
        assert!(br.admits(0), "4th consultation half-opens and probes");
        assert_eq!(br.stage(0), BreakerStage::HalfOpen);
        br.record(0, true);
        assert!(br.admits(0));
        br.record(0, true);
        assert_eq!(br.stage(0), BreakerStage::Closed, "two successes close");
        // A failed probe reopens.
        for _ in 0..3 {
            br.record(0, false);
        }
        assert_eq!(br.stage(0), BreakerStage::Open);
        for _ in 0..3 {
            br.admits(0);
        }
        assert!(br.admits(0));
        br.record(0, false);
        assert_eq!(br.stage(0), BreakerStage::Open, "failed probe reopens");
    }

    #[test]
    fn breaker_probe_admission_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let br = CircuitBreaker::new(
                1,
                BreakerPolicy {
                    failure_threshold: 1,
                    open_ops: 1,
                    probe_prob: 0.5,
                    success_to_close: u32::MAX, // stay HalfOpen
                    seed,
                },
            );
            br.record(0, false); // trip
            (0..64).map(|_| br.admits(0)).collect()
        };
        let a = run(11);
        assert_eq!(a, run(11), "same seed replays the same probe schedule");
        assert_ne!(a, run(12), "different seeds differ");
        assert!(a.iter().any(|x| *x) && a.iter().any(|x| !*x));
    }

    #[test]
    fn disabled_wrapper_is_a_pass_through() {
        let oss = Oss::in_memory();
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        let store = HedgedStore::new(
            Arc::new(oss.clone()),
            HedgePolicy {
                enabled: false,
                ..HedgePolicy::for_endpoints(2)
            },
        );
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v"));
        assert_eq!(store.len("k").unwrap(), Some(1));
        store.put("k2", Bytes::from_static(b"w")).unwrap();
        assert_eq!(store.list(""), vec!["k".to_string(), "k2".to_string()]);
        assert_eq!(store.shared.metrics.issued.get(), 0);
    }

    #[test]
    fn cold_store_reads_take_the_direct_path() {
        let oss = oss_with_endpoints(2);
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        let store = HedgedStore::new(Arc::new(oss.clone()), HedgePolicy::for_endpoints(2));
        for _ in 0..8 {
            assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v"));
        }
        assert_eq!(
            store.shared.metrics.issued.get(),
            0,
            "in-memory latencies never clear the activation floor"
        );
        assert_eq!(
            oss.metrics().snapshot().get_requests,
            8,
            "one call per read"
        );
        assert!(store.health().observations(0) + store.health().observations(1) == 8);
    }

    #[test]
    fn single_read_is_the_one_item_batch() {
        // Twin stores, one driven through `get`, one through one-key
        // `get_many`: same hedge and breaker counters, one `read_nanos`
        // sample per call, and both feed the health tracker and the
        // hedge-delay pool.
        let run = |read: &dyn Fn(&HedgedStore) -> Result<Bytes>| {
            let oss = oss_with_endpoints(2);
            oss.put("k", Bytes::from_static(b"v")).unwrap();
            let registry = Registry::new();
            let store = HedgedStore::with_telemetry(
                Arc::new(oss),
                HedgePolicy::for_endpoints(2),
                &registry.scope("oss"),
            );
            for _ in 0..8 {
                assert_eq!(read(&store).unwrap(), Bytes::from_static(b"v"));
            }
            let refused = Deadline::within(Duration::ZERO).scope(|| read(&store));
            assert!(matches!(refused, Err(SlimError::Timeout { .. })));
            let observed = store.health().observations(0) + store.health().observations(1);
            for e in 0..2 {
                for _ in 0..store.shared.policy.breaker.failure_threshold {
                    store.breaker().record(e, false);
                }
            }
            assert!(matches!(read(&store), Err(SlimError::CircuitOpen(_))));
            let snap = registry.snapshot();
            let counters: Vec<(String, u64)> = snap
                .counters
                .iter()
                .filter(|(name, _)| {
                    name.starts_with("oss.hedge.") || name.starts_with("oss.breaker.")
                })
                .map(|(name, value)| (name.clone(), *value))
                .collect();
            let samples = |name: &str| snap.histograms[name].count;
            (
                counters,
                observed,
                samples("oss.hedge.read_nanos"),
                samples("oss.health.latency_nanos"),
            )
        };
        let single = run(&|store| store.get("k"));
        let batched = run(&|store| store.get_many(&["k".to_string()]).pop().unwrap());
        assert_eq!(single, batched);
        let (counters, observed, read_samples, pooled) = single;
        assert!(counters.contains(&("oss.hedge.deadline_refused".to_string(), 1)));
        assert!(counters.contains(&("oss.breaker.shed".to_string(), 1)));
        assert_eq!(observed, 8, "every read scored an endpoint");
        assert_eq!(
            read_samples, 9,
            "one sample per read past the deadline gate"
        );
        assert_eq!(pooled, 8, "every read fed the hedge-delay pool");
    }

    #[test]
    fn expired_deadline_refuses_without_touching_the_store() {
        let oss = oss_with_endpoints(2);
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        let store = HedgedStore::new(Arc::new(oss.clone()), HedgePolicy::for_endpoints(2));
        let before = oss.metrics().snapshot();
        Deadline::within(Duration::ZERO).scope(|| {
            assert!(matches!(store.get("k"), Err(SlimError::Timeout { .. })));
            assert!(matches!(
                store.put("k2", Bytes::new()),
                Err(SlimError::Timeout { .. })
            ));
            let many = store.get_many(&["k".to_string()]);
            assert!(matches!(many[0], Err(SlimError::Timeout { .. })));
        });
        let after = oss.metrics().snapshot();
        assert_eq!(before.get_requests, after.get_requests);
        assert_eq!(before.put_requests, after.put_requests);
        assert_eq!(store.shared.metrics.deadline_refused.get(), 3);
        // Outside the scope everything works again.
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn all_breakers_open_sheds_with_circuit_open() {
        let oss = oss_with_endpoints(2);
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        let store = HedgedStore::new(Arc::new(oss.clone()), HedgePolicy::for_endpoints(2));
        for e in 0..2 {
            for _ in 0..store.shared.policy.breaker.failure_threshold {
                store.breaker().record(e, false);
            }
            assert_eq!(store.breaker().stage(e), BreakerStage::Open);
        }
        let before = oss.metrics().snapshot();
        let err = store.get("k").unwrap_err();
        assert!(matches!(err, SlimError::CircuitOpen(_)), "{err}");
        assert!(err.is_retryable());
        assert_eq!(
            oss.metrics().snapshot().get_requests,
            before.get_requests,
            "shed call never reached the store"
        );
        assert!(store.shared.breaker.shed.get() >= 1);
    }

    #[test]
    fn hedge_fires_and_wins_under_heavy_tail_latency() {
        let oss = oss_with_endpoints(2);
        oss.put("k", Bytes::from(vec![7u8; 256])).unwrap();
        // Every endpoint draws a heavy-tail delay: most reads land near the
        // 300µs scale, a seeded minority blows past the 1ms hedge ceiling.
        // (Not endpoint-scoped: health routing would simply learn to avoid
        // a single straggler and the hedge path would stay cold.)
        oss.inject_fault(FaultPlan::LatencyPareto {
            prefix: String::new(),
            endpoint: None,
            scale: Duration::from_micros(300),
            shape: 1.1,
            cap: Duration::from_millis(10),
            seed: 9,
        });
        let policy = HedgePolicy {
            min_observations: 4,
            activation_floor: Duration::ZERO,
            min_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(1),
            ..HedgePolicy::for_endpoints(2)
        };
        let store = HedgedStore::new(Arc::new(oss.clone()), policy);
        for _ in 0..96 {
            let got = store.get("k").unwrap();
            assert_eq!(got, Bytes::from(vec![7u8; 256]), "hedged bytes identical");
        }
        let m = &store.shared.metrics;
        assert!(m.issued.get() > 0, "tail reads outlived the hedge delay");
        assert!(m.won.get() > 0, "some hedges beat their straggling primary");
        assert_eq!(m.delay_nanos.snapshot().count, m.issued.get());
    }

    #[test]
    fn transient_primary_fails_over_to_backup() {
        let oss = oss_with_endpoints(2);
        oss.put("k", Bytes::from_static(b"v")).unwrap();
        let policy = HedgePolicy {
            min_observations: 4,
            activation_floor: Duration::ZERO,
            min_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(1),
            ..HedgePolicy::for_endpoints(2)
        };
        let store = HedgedStore::new(Arc::new(oss.clone()), policy);
        // Warm the delay pool, then teach the tracker that endpoint 1 is
        // slow so routing deterministically picks endpoint 0 as primary —
        // which is exactly the endpoint about to start failing.
        for _ in 0..8 {
            store.get("k").unwrap();
        }
        for _ in 0..16 {
            store.health().record(1, Duration::from_millis(5), true);
        }
        assert_eq!(store.health().ranked()[0], 0);
        oss.inject_fault(FaultPlan::EndpointTransient {
            endpoint: 0,
            prob: 1.0,
            seed: 3,
        });
        // Reads must keep succeeding throughout: the sick primary fails
        // over to the backup, and once health/breaker state catches up the
        // healthy endpoint serves directly.
        for _ in 0..16 {
            assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v"));
        }
        let m = &store.shared.metrics;
        assert!(m.failovers.get() > 0, "sick primary failed over");
    }
}
