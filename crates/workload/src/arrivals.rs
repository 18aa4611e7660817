//! Seeded open-loop arrival processes for frontend/QoS experiments.
//!
//! A closed-loop driver (issue, wait, issue again) can never overload a
//! system — its arrival rate falls to match the service rate, which is
//! exactly the behaviour admission control exists to replace. QoS
//! experiments therefore need an *open-loop* process: arrival times drawn
//! independently of completions, so when the offered rate exceeds the
//! service rate the backlog grows and the admission plane must shed.
//!
//! [`PoissonArrivals`] generates exponentially distributed inter-arrival
//! gaps (`gap = -ln(1 - u) / rate`), i.e. a Poisson process — the
//! standard memoryless model of independent clients. It is an iterator
//! over absolute virtual timestamps, deterministic in its seed, and
//! carries no clock of its own: experiments replay the timestamps against
//! a real or manual clock as they see fit.

use std::time::Duration;

use slim_types::rng::Rng;

/// A seeded open-loop Poisson arrival process: an infinite iterator of
/// absolute arrival times (offsets from the experiment's origin), strictly
/// non-decreasing, with exponential inter-arrival gaps of mean
/// `1 / rate_per_sec`.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate_per_sec: f64,
    next: Duration,
    rng: Rng,
}

impl PoissonArrivals {
    /// A process offering `rate_per_sec` arrivals per second on average.
    /// The first arrival is at the origin plus one exponential gap.
    ///
    /// # Panics
    /// If `rate_per_sec` is not finite and positive — an open-loop driver
    /// with no rate is a configuration bug, not a runtime condition.
    pub fn new(rate_per_sec: f64, seed: u64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be finite and > 0, got {rate_per_sec}"
        );
        PoissonArrivals {
            rate_per_sec,
            next: Duration::ZERO,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The configured mean offered rate.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }

    /// The arrival timestamps within `[0, horizon)`, collected. A
    /// convenience for experiments that pre-plan a fixed window.
    pub fn take_until(mut self, horizon: Duration) -> Vec<Duration> {
        let mut arrivals = Vec::new();
        loop {
            let t = self.next_arrival();
            if t >= horizon {
                return arrivals;
            }
            arrivals.push(t);
        }
    }

    fn next_arrival(&mut self) -> Duration {
        // Inverse-CDF sampling of Exp(rate): gap = -ln(1 - u) / rate with
        // u uniform in [0, 1). `1 - u` is never zero, so ln is finite.
        let u = self.rng.unit_f64();
        let gap = -(1.0 - u).ln() / self.rate_per_sec;
        self.next += Duration::from_secs_f64(gap);
        self.next
    }
}

impl Iterator for PoissonArrivals {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        Some(self.next_arrival())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a: Vec<Duration> = PoissonArrivals::new(100.0, 7).take(50).collect();
        let b: Vec<Duration> = PoissonArrivals::new(100.0, 7).take(50).collect();
        let c: Vec<Duration> = PoissonArrivals::new(100.0, 8).take(50).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_are_nondecreasing() {
        let arrivals: Vec<Duration> = PoissonArrivals::new(1000.0, 42).take(500).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn mean_rate_matches_configuration() {
        // 2000 arrivals at 50/s should span ~40s; the sample mean of an
        // exponential concentrates tightly at n = 2000 (std err ~2.2%).
        let n = 2000;
        let last = PoissonArrivals::new(50.0, 1).take(n).last().unwrap();
        let observed = n as f64 / last.as_secs_f64();
        assert!(
            (observed - 50.0).abs() < 5.0,
            "observed rate {observed}/s, configured 50/s"
        );
    }

    #[test]
    fn take_until_respects_horizon() {
        let horizon = Duration::from_secs(2);
        let arrivals = PoissonArrivals::new(100.0, 3).take_until(horizon);
        assert!(!arrivals.is_empty());
        assert!(arrivals.iter().all(|t| *t < horizon));
        // ~200 expected; allow wide slack, this only guards gross bugs.
        assert!(arrivals.len() > 120 && arrivals.len() < 300);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be finite")]
    fn zero_rate_is_a_configuration_bug() {
        let _ = PoissonArrivals::new(0.0, 1);
    }
}
