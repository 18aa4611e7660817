//! Per-endpoint health scoring for the gray-failure resilience plane.
//!
//! A gray failure is an endpoint that still answers — just slowly, or with
//! an elevated error rate — so binary up/down checks never trip. The
//! [`HealthTracker`] keeps, per simulated endpoint, an exponentially
//! weighted moving average of observed request latency and of the error
//! rate, folds them into a single *score* (lower is healthier), and exposes
//! all three as `oss.health.<endpoint>.*` gauges. The hedging layer uses the
//! scores to route primaries to the healthiest endpoint, and the pooled
//! latency histogram to derive its hedge delay from a live quantile.
//!
//! All state is relaxed atomics: health is monitoring data, and a slightly
//! stale score only shifts which endpoint serves the *next* request — never
//! correctness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use slim_telemetry::{Gauge, Histogram, Registry, Scope};

/// EWMA smoothing: each sample moves the average by 1/8 of the distance.
const EWMA_SHIFT: u32 = 3;

struct EndpointHealth {
    /// Latency EWMA in nanoseconds (0 until the first sample).
    latency_ewma: AtomicU64,
    /// Error-rate EWMA in permille (0..=1000).
    error_permille: AtomicU64,
    ops: AtomicU64,
    latency_gauge: Gauge,
    error_gauge: Gauge,
    score_gauge: Gauge,
}

impl EndpointHealth {
    fn new(scope: &Scope, endpoint: usize) -> Self {
        let gauge = |name: &str| scope.gauge(&format!("health.{endpoint}.{name}"));
        EndpointHealth {
            latency_ewma: AtomicU64::new(0),
            error_permille: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            latency_gauge: gauge("latency_ewma_nanos"),
            error_gauge: gauge("error_permille"),
            score_gauge: gauge("score"),
        }
    }

    fn fold(&self, cell: &AtomicU64, sample: u64) -> u64 {
        // Racy read-modify-write on purpose: a lost update skews the EWMA
        // by one sample, which monitoring tolerates; a CAS loop would put
        // contention on the hot read path.
        let old = cell.load(Ordering::Relaxed);
        let new = if self.ops.load(Ordering::Relaxed) == 0 {
            sample
        } else {
            (old - (old >> EWMA_SHIFT)).saturating_add(sample >> EWMA_SHIFT)
        };
        cell.store(new, Ordering::Relaxed);
        new
    }

    fn record(&self, latency: Duration, ok: bool) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let lat = self.fold(&self.latency_ewma, nanos);
        let err = self.fold(&self.error_permille, if ok { 0 } else { 1000 });
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.latency_gauge
            .set(i64::try_from(lat).unwrap_or(i64::MAX));
        self.error_gauge.set(err as i64);
        self.score_gauge
            .set(i64::try_from(score(lat, err)).unwrap_or(i64::MAX));
    }

    fn score(&self) -> u64 {
        score(
            self.latency_ewma.load(Ordering::Relaxed),
            self.error_permille.load(Ordering::Relaxed),
        )
    }
}

/// Latency EWMA inflated by the error rate: a fully erroring endpoint
/// scores 10× its latency, so sick-but-fast never outranks healthy-but-
/// ordinary. Lower is healthier.
fn score(latency_ewma_nanos: u64, error_permille: u64) -> u64 {
    let inflated =
        latency_ewma_nanos as u128 * (1000 + 9 * error_permille.min(1000) as u128) / 1000;
    u64::try_from(inflated).unwrap_or(u64::MAX)
}

/// Health state for a fixed set of endpoints plus the pooled latency
/// distribution the hedge delay is derived from.
pub struct HealthTracker {
    endpoints: Vec<EndpointHealth>,
    /// Pooled latency of *successful* primary-path requests across all
    /// endpoints; the hedge-delay quantile reads this.
    latency: Histogram,
    /// Cached hedge delay in nanos (0 = not yet computed / inactive),
    /// refreshed every [`HealthTracker::REFRESH_EVERY`] samples.
    cached_delay: AtomicU64,
    cached_generation: AtomicU64,
}

impl HealthTracker {
    const REFRESH_EVERY: u64 = 32;

    /// A tracker for `endpoints` endpoints with gauges in a private
    /// registry.
    pub fn new(endpoints: usize) -> Self {
        HealthTracker::with_telemetry(endpoints, &Registry::new().scope("oss"))
    }

    /// A tracker whose gauges live under `scope` (canonically `"oss"`,
    /// yielding `oss.health.<endpoint>.{latency_ewma_nanos,error_permille,
    /// score}`) and whose pooled latency histogram is
    /// `<scope>.health.latency_nanos`.
    pub fn with_telemetry(endpoints: usize, scope: &Scope) -> Self {
        let n = endpoints.max(1);
        HealthTracker {
            endpoints: (0..n).map(|i| EndpointHealth::new(scope, i)).collect(),
            latency: scope.histogram("health.latency_nanos"),
            cached_delay: AtomicU64::new(0),
            cached_generation: AtomicU64::new(0),
        }
    }

    /// Number of endpoints tracked.
    pub fn endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// Fold one observed request into an endpoint's health.
    pub fn record(&self, endpoint: usize, latency: Duration, ok: bool) {
        self.record_unpooled(endpoint, latency, ok);
        if ok {
            self.latency
                .record(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Like [`HealthTracker::record`] but without pooling the latency into
    /// the hedge-delay distribution — for batched and write requests, whose
    /// durations are not comparable to a single read.
    pub fn record_unpooled(&self, endpoint: usize, latency: Duration, ok: bool) {
        if let Some(ep) = self.endpoints.get(endpoint) {
            ep.record(latency, ok);
        }
    }

    /// Samples folded into endpoint `endpoint` so far.
    pub fn observations(&self, endpoint: usize) -> u64 {
        self.endpoints
            .get(endpoint)
            .map_or(0, |ep| ep.ops.load(Ordering::Relaxed))
    }

    /// Current score of one endpoint (lower is healthier).
    pub fn score(&self, endpoint: usize) -> u64 {
        self.endpoints
            .get(endpoint)
            .map_or(u64::MAX, |ep| ep.score())
    }

    /// Endpoints ordered healthiest-first. Ties break deterministically on
    /// the lower index, so a fresh tracker (all scores zero) always ranks
    /// `0, 1, 2, …` — no hidden randomness in routing.
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.endpoints.len()).collect();
        order.sort_by_key(|&i| (self.endpoints[i].score(), i));
        order
    }

    /// The healthiest endpoint satisfying `admitted`, if any.
    pub fn healthiest(&self, admitted: impl Fn(usize) -> bool) -> Option<usize> {
        self.ranked().into_iter().find(|&i| admitted(i))
    }

    /// The hedge delay derived from the pooled latency distribution: the
    /// `quantile` latency clamped to `[min, max]`. Returns `None` until
    /// `min_observations` successful requests have been pooled or while the
    /// quantile sits below `activation_floor` — on a fast store, hedging
    /// would only add load, so the plane stays inert. The quantile is
    /// recomputed every 32 samples and cached in between.
    pub fn hedge_delay(
        &self,
        quantile: f64,
        min: Duration,
        max: Duration,
        min_observations: u64,
        activation_floor: Duration,
    ) -> Option<Duration> {
        let snap = self.latency.snapshot();
        if snap.count < min_observations {
            return None;
        }
        let generation = snap.count / HealthTracker::REFRESH_EVERY;
        if self.cached_generation.swap(generation, Ordering::Relaxed) != generation
            || self.cached_delay.load(Ordering::Relaxed) == 0
        {
            let q = snap.quantile(quantile);
            let delay = if (q as u128) < activation_floor.as_nanos() {
                0 // inactive sentinel: distribution too fast to hedge
            } else {
                q.clamp(
                    u64::try_from(min.as_nanos()).unwrap_or(u64::MAX),
                    u64::try_from(max.as_nanos()).unwrap_or(u64::MAX),
                )
            };
            self.cached_delay.store(delay, Ordering::Relaxed);
        }
        match self.cached_delay.load(Ordering::Relaxed) {
            0 => None,
            nanos => Some(Duration::from_nanos(nanos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_rank_slow_and_erroring_endpoints_worse() {
        let t = HealthTracker::new(3);
        for _ in 0..64 {
            t.record(0, Duration::from_micros(100), true);
            t.record(1, Duration::from_micros(900), true);
            t.record(2, Duration::from_micros(100), false);
        }
        assert!(t.score(0) < t.score(1), "slow endpoint scores worse");
        assert!(t.score(0) < t.score(2), "erroring endpoint scores worse");
        assert_eq!(t.ranked()[0], 0);
        assert_eq!(t.healthiest(|_| true), Some(0));
        assert_eq!(t.healthiest(|i| i != 0), Some(t.ranked()[1]));
        assert_eq!(t.healthiest(|_| false), None);
        assert_eq!(t.observations(0), 64);
    }

    #[test]
    fn fresh_tracker_ranks_by_index() {
        let t = HealthTracker::new(4);
        assert_eq!(t.ranked(), vec![0, 1, 2, 3]);
        assert_eq!(t.healthiest(|i| i >= 2), Some(2));
    }

    #[test]
    fn hedge_delay_needs_observations_and_a_slow_quantile() {
        let t = HealthTracker::new(2);
        let delay = |t: &HealthTracker| {
            t.hedge_delay(
                0.95,
                Duration::from_micros(50),
                Duration::from_millis(10),
                32,
                Duration::from_micros(200),
            )
        };
        assert_eq!(delay(&t), None, "no data yet");
        for _ in 0..64 {
            t.record(0, Duration::from_micros(10), true);
        }
        assert_eq!(delay(&t), None, "fast store stays below activation floor");
        let t = HealthTracker::new(2);
        for _ in 0..64 {
            t.record(0, Duration::from_millis(1), true);
        }
        let d = delay(&t).expect("slow store activates hedging");
        assert!(d >= Duration::from_micros(50) && d <= Duration::from_millis(10));
    }

    #[test]
    fn failed_requests_do_not_pollute_the_latency_pool() {
        let t = HealthTracker::new(1);
        for _ in 0..64 {
            t.record(0, Duration::from_secs(5), false);
        }
        assert_eq!(
            t.hedge_delay(
                0.95,
                Duration::ZERO,
                Duration::from_secs(10),
                1,
                Duration::ZERO,
            ),
            None,
            "only successes feed the hedge-delay quantile"
        );
    }

    #[test]
    fn telemetry_gauges_reflect_health() {
        let registry = slim_telemetry::Registry::new();
        let t = HealthTracker::with_telemetry(2, &registry.scope("oss"));
        t.record(1, Duration::from_micros(500), true);
        let snap = registry.snapshot();
        assert!(snap.gauges["oss.health.1.latency_ewma_nanos"] > 0);
        assert_eq!(snap.gauges["oss.health.1.error_permille"], 0);
        assert!(snap.gauges.contains_key("oss.health.0.score"));
        assert_eq!(snap.histograms["oss.health.latency_nanos"].count, 1);
    }
}
