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
use slim_types::{Deadline, Result, SlimError};

use crate::endpoint;
use crate::fault::{splitmix64, unit_f64};
use crate::health::HealthTracker;
use crate::store::ObjectStore;

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
        let admit = unit_f64(splitmix64(x)) < self.policy.probe_prob;
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
    /// Run one attempt pinned to `endpoint`, folding latency and endpoint
    /// health into the tracker and breaker. `pooled` feeds the hedge-delay
    /// quantile (single-op reads only).
    fn attempt<T>(
        &self,
        endpoint: usize,
        pooled: bool,
        call: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let _pin = endpoint::pin(endpoint);
        let start = Instant::now();
        let result = call();
        let elapsed = start.elapsed();
        let healthy = result.as_ref().err().is_none_or(|e| !endpoint_sick(e));
        if pooled {
            self.health.record(endpoint, elapsed, healthy);
        } else {
            self.health.record_unpooled(endpoint, elapsed, healthy);
        }
        self.breaker.record(endpoint, healthy);
        result
    }

    /// Run one whole-batch attempt pinned to `endpoint`; health sees the
    /// per-item latency so batch size does not distort endpoint scores.
    fn attempt_batch<T>(
        &self,
        endpoint: usize,
        items: usize,
        call: impl FnOnce() -> Vec<Result<T>>,
    ) -> Vec<Result<T>> {
        let _pin = endpoint::pin(endpoint);
        let start = Instant::now();
        let results = call();
        let elapsed = start.elapsed();
        let healthy = sick_count(&results) == 0;
        self.health
            .record_unpooled(endpoint, elapsed / items.max(1) as u32, healthy);
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

    /// A hedgeable single read: deadline gate, health routing, and —
    /// once the delay quantile is live — the primary/backup race.
    fn read<T: Send + 'static>(
        &self,
        op: &'static str,
        call: impl Fn() -> Result<T> + Send + Sync + 'static,
    ) -> Result<T> {
        let deadline = Deadline::current();
        if deadline.expired() {
            self.shared.metrics.deadline_refused.inc();
            return Err(expired_err(op));
        }
        let started = Instant::now();
        let result = self.read_raced(op, deadline, call);
        self.shared
            .metrics
            .read_nanos
            .record_duration(started.elapsed());
        result
    }

    fn read_raced<T: Send + 'static>(
        &self,
        op: &'static str,
        deadline: Deadline,
        call: impl Fn() -> Result<T> + Send + Sync + 'static,
    ) -> Result<T> {
        let shared = &self.shared;
        if !shared.policy.enabled || shared.policy.endpoints <= 1 {
            return call();
        }
        let (primary, backup) = shared.route();
        let Some(primary) = primary else {
            shared.breaker.record_shed();
            return Err(SlimError::CircuitOpen(format!(
                "{op}: every endpoint's breaker refused the call"
            )));
        };
        let (delay, backup) = match (shared.hedge_delay(), backup) {
            (Some(delay), Some(backup)) => (delay, backup),
            // Cold/fast store, or no second endpoint admitted: single
            // attempt on the chosen endpoint, in the caller's thread.
            _ => return shared.attempt(primary, true, call),
        };
        let shared = self.shared.clone();
        let call = Arc::new(call);
        let (tx, rx) = mpsc::channel::<(bool, Result<T>)>();
        {
            let shared = shared.clone();
            let call = call.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let result = shared.attempt(primary, true, || call());
                let _ = tx.send((false, result));
            });
        }
        let wait = deadline.remaining().map_or(delay, |rem| delay.min(rem));
        match rx.recv_timeout(wait) {
            Ok((_, Ok(value))) => return Ok(value),
            Ok((_, Err(err))) if endpoint_sick(&err) => {
                // Primary failed fast with a retryable error: fail over to
                // the backup immediately instead of waiting out the delay.
                shared.metrics.failovers.inc();
                {
                    let shared = shared.clone();
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let result = shared.attempt(backup, true, || call());
                        let _ = tx.send((true, result));
                    });
                }
                drop(tx);
                let msg = match deadline.remaining() {
                    None => rx.recv().ok(),
                    Some(rem) if rem.is_zero() => None,
                    Some(rem) => rx.recv_timeout(rem).ok(),
                };
                return match msg {
                    Some((_, Ok(value))) => Ok(value),
                    // Surface the backup's data-level error (the primary's
                    // transient masked it), the primary's error otherwise.
                    Some((_, Err(be))) if !endpoint_sick(&be) => Err(be),
                    Some(_) => Err(err),
                    None => Err(expired_err(op)),
                };
            }
            Ok((_, Err(err))) => return Err(err), // data-level: hedging won't help
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("primary sender held until after the race")
            }
        }
        // The primary has been outstanding past the hedge delay: race it.
        shared.metrics.issued.inc();
        shared.metrics.delay_nanos.record_duration(wait);
        {
            let shared = shared.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let result = shared.attempt(backup, true, || call());
                let _ = tx.send((true, result));
            });
        }
        drop(tx);
        let mut sick_primary: Option<SlimError> = None;
        let mut sick_hedge: Option<SlimError> = None;
        loop {
            let received = match deadline.remaining() {
                None => rx.recv().ok(),
                Some(rem) if rem.is_zero() => return Err(expired_err(op)),
                Some(rem) => match rx.recv_timeout(rem) {
                    Ok(msg) => Some(msg),
                    Err(mpsc::RecvTimeoutError::Timeout) => return Err(expired_err(op)),
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                },
            };
            let Some((from_hedge, result)) = received else {
                // Both attempts reported, neither produced a winner.
                shared.metrics.wasted.inc();
                return Err(sick_primary
                    .take()
                    .or_else(|| sick_hedge.take())
                    .unwrap_or_else(|| expired_err(op)));
            };
            match result {
                Ok(value) => {
                    let (mut value, mut from_hedge) = (value, from_hedge);
                    // Both results already queued: a seeded coin decides so
                    // the tie-break replays deterministically.
                    if let Ok((other_hedge, Ok(other))) = rx.try_recv() {
                        let ordinal = shared.ties.fetch_add(1, Ordering::Relaxed);
                        let pick_hedge =
                            splitmix64(shared.policy.seed.wrapping_add(ordinal)) & 1 == 1;
                        if pick_hedge != from_hedge {
                            value = other;
                            from_hedge = other_hedge;
                        }
                    }
                    if from_hedge {
                        shared.metrics.won.inc();
                    } else {
                        shared.metrics.wasted.inc();
                    }
                    return Ok(value);
                }
                Err(err) if endpoint_sick(&err) => {
                    // Keep waiting: the other attempt may still succeed.
                    if from_hedge {
                        sick_hedge = Some(err);
                    } else {
                        sick_primary = Some(err);
                    }
                }
                Err(err) => {
                    // Data-level error: every endpoint would answer the same.
                    if from_hedge {
                        shared.metrics.won.inc();
                    } else {
                        shared.metrics.wasted.inc();
                    }
                    return Err(err);
                }
            }
        }
    }

    /// A hedgeable batch read: the whole batch races, first completed
    /// batch wins; a batch that completes with retryable per-item errors
    /// waits for (or triggers) its twin and the cleaner batch is returned.
    fn read_many<T: Send + 'static>(
        &self,
        op: &'static str,
        items: usize,
        call: impl Fn() -> Vec<Result<T>> + Send + Sync + 'static,
    ) -> Vec<Result<T>> {
        let deadline = Deadline::current();
        if deadline.expired() {
            self.shared.metrics.deadline_refused.inc();
            return (0..items).map(|_| Err(expired_err(op))).collect();
        }
        let shared = &self.shared;
        if !shared.policy.enabled || shared.policy.endpoints <= 1 || items == 0 {
            return call();
        }
        let (primary, backup) = shared.route();
        let Some(primary) = primary else {
            shared.breaker.record_shed();
            return (0..items)
                .map(|_| {
                    Err(SlimError::CircuitOpen(format!(
                        "{op}: every endpoint's breaker refused the call"
                    )))
                })
                .collect();
        };
        let (delay, backup) = match (shared.hedge_delay(), backup) {
            (Some(delay), Some(backup)) => (delay, backup),
            _ => return shared.attempt_batch(primary, items, call),
        };
        let shared = self.shared.clone();
        let call = Arc::new(call);
        let (tx, rx) = mpsc::channel::<(bool, Vec<Result<T>>)>();
        let spawn = |endpoint: usize, is_hedge: bool| {
            let shared = shared.clone();
            let call = call.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let results = shared.attempt_batch(endpoint, items, || call());
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
            Ok((_, results)) if sick_count(&results) == 0 => results,
            Ok((_, results)) => {
                // Primary completed but some items hit retryable errors:
                // fail the whole batch over and keep the cleaner outcome.
                shared.metrics.failovers.inc();
                spawn(backup, true);
                drop(tx);
                match recv_bounded(&rx) {
                    Some((_, twin)) if sick_count(&twin) < sick_count(&results) => twin,
                    _ => results,
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                shared.metrics.issued.inc();
                shared.metrics.delay_nanos.record_duration(wait);
                spawn(backup, true);
                drop(tx);
                let Some((from_hedge, first)) = recv_bounded(&rx) else {
                    return (0..items).map(|_| Err(expired_err(op))).collect();
                };
                if sick_count(&first) == 0 {
                    if from_hedge {
                        shared.metrics.won.inc();
                    } else {
                        shared.metrics.wasted.inc();
                    }
                    return first;
                }
                match recv_bounded(&rx) {
                    Some((twin_hedge, twin)) => {
                        let use_twin = sick_count(&twin) < sick_count(&first);
                        let won = if use_twin { twin_hedge } else { from_hedge };
                        if won {
                            shared.metrics.won.inc();
                        } else {
                            shared.metrics.wasted.inc();
                        }
                        if use_twin {
                            twin
                        } else {
                            first
                        }
                    }
                    None => {
                        if from_hedge {
                            shared.metrics.won.inc();
                        } else {
                            shared.metrics.wasted.inc();
                        }
                        first
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("primary batch sender held until after the race")
            }
        }
    }

    /// A routed, non-hedged operation (writes, deletes, metadata probes):
    /// deadline gate, endpoint selection, one attempt.
    fn routed<T>(&self, op: &'static str, call: impl FnOnce() -> Result<T>) -> Result<T> {
        let deadline = Deadline::current();
        if deadline.expired() {
            self.shared.metrics.deadline_refused.inc();
            return Err(expired_err(op));
        }
        let shared = &self.shared;
        if !shared.policy.enabled || shared.policy.endpoints <= 1 {
            return call();
        }
        match shared.route().0 {
            Some(endpoint) => shared.attempt(endpoint, false, call),
            None => {
                shared.breaker.record_shed();
                Err(SlimError::CircuitOpen(format!(
                    "{op}: every endpoint's breaker refused the call"
                )))
            }
        }
    }

    /// A routed, non-hedged batch (deletes).
    fn routed_many<T>(
        &self,
        op: &'static str,
        items: usize,
        call: impl FnOnce() -> Vec<Result<T>>,
    ) -> Vec<Result<T>> {
        let deadline = Deadline::current();
        if deadline.expired() {
            self.shared.metrics.deadline_refused.inc();
            return (0..items).map(|_| Err(expired_err(op))).collect();
        }
        let shared = &self.shared;
        if !shared.policy.enabled || shared.policy.endpoints <= 1 || items == 0 {
            return call();
        }
        match shared.route().0 {
            Some(endpoint) => shared.attempt_batch(endpoint, items, call),
            None => {
                shared.breaker.record_shed();
                (0..items)
                    .map(|_| {
                        Err(SlimError::CircuitOpen(format!(
                            "{op}: every endpoint's breaker refused the call"
                        )))
                    })
                    .collect()
            }
        }
    }
}

impl ObjectStore for HedgedStore {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.routed("put", || self.shared.inner.put(key, value))
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let inner = self.shared.inner.clone();
        let key = key.to_string();
        self.read("get", move || inner.get(&key))
    }

    fn get_raw(&self, key: &str) -> Result<Bytes> {
        // Integrity sweeps want the primary's exact bytes; no routing, no
        // hedging, no health accounting.
        self.shared.inner.get_raw(key)
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        let inner = self.shared.inner.clone();
        let key = key.to_string();
        self.read("get", move || inner.get_range(&key, start, len))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.routed("delete", || self.shared.inner.delete(key))
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.routed("head", || self.shared.inner.exists(key))
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        let inner = self.shared.inner.clone();
        let key = key.to_string();
        self.read("head", move || inner.len(&key))
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
