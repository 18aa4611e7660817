//! Fault injection for the simulated OSS.
//!
//! Integration tests use this to verify that backup/restore jobs surface
//! storage errors instead of corrupting state. Plans come in two families:
//!
//! - **Permanent / one-shot** plans ([`FaultPlan::KeyPrefix`],
//!   [`FaultPlan::NextOps`], [`FaultPlan::NthOnPrefix`]) model hard failures
//!   and targeted kill-points; they produce [`FaultErrorKind::Permanent`].
//! - **Transient** plans ([`FaultPlan::TransientProb`],
//!   [`FaultPlan::Throttle`], [`FaultPlan::Latency`]) model the 5xx/429/slow
//!   behaviour of real object stores. They are driven by per-plan operation
//!   counters and a seeded `slim_types::rng` stream, so an armed schedule is
//!   fully reproducible: the same seed and the same operation sequence yield
//!   the same faults on every run.
//!
//! Multiple plans can be armed at once via [`FaultState::arm_also`] (e.g.
//! latency on every op plus probabilistic transient failures); the first
//! failing plan in arming order decides the error kind, and latency from all
//! matching [`FaultPlan::Latency`] plans accumulates.

use std::time::Duration;

use parking_lot::Mutex;
use slim_types::rng::{mix64, unit_f64};

/// What operations to fail.
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Fail every operation whose key starts with this prefix.
    KeyPrefix(String),
    /// Fail the next `n` operations (any key), then recover.
    NextOps(u64),
    /// Fail the `nth` (1-based) future operation whose key starts with the
    /// prefix, then recover.
    NthOnPrefix { prefix: String, nth: u64 },
    /// Fail each operation whose key starts with `prefix` with probability
    /// `prob`, deterministically derived from `seed` and the per-plan
    /// operation ordinal. A failed operation succeeds when retried iff the
    /// next ordinal draws above `prob` — the transient-5xx model.
    TransientProb {
        prefix: String,
        prob: f64,
        seed: u64,
    },
    /// Fail every `every_nth` (1-based) operation with a throttling error,
    /// persistently — the rate-limit model.
    Throttle { every_nth: u64 },
    /// Inject `delay` on every operation whose key starts with `prefix`;
    /// the operation itself succeeds — the slow-request model.
    Latency { prefix: String, delay: Duration },
    /// Corrupt the payload of every *read* whose key starts with `prefix`:
    /// the operation succeeds but returns mangled bytes — the bit-rot /
    /// torn-object model. Non-read operations are unaffected. The corruption
    /// site is drawn deterministically from `seed` and the per-plan
    /// operation ordinal, so schedules replay exactly.
    CorruptRead {
        prefix: String,
        kind: CorruptionKind,
        seed: u64,
    },
    /// Inject a seeded *heavy-tailed* delay on every operation whose key
    /// starts with `prefix` (optionally only when served by one endpoint):
    /// the delay is drawn from a bounded Pareto distribution with minimum
    /// `scale`, tail exponent `shape`, and hard upper bound `cap` — the
    /// gray-failure straggler model (most requests near `scale`, a seeded
    /// few out at the tail). The operation itself succeeds. Draws come from
    /// `seed` and the per-plan operation ordinal, so straggler schedules
    /// replay exactly.
    LatencyPareto {
        prefix: String,
        /// Restrict the plan to one endpoint (`None` = every endpoint) —
        /// how tests model a single degraded-but-alive storage node.
        endpoint: Option<usize>,
        /// Minimum injected delay (the Pareto `x_m`).
        scale: Duration,
        /// Tail exponent `alpha` (> 0); smaller = heavier tail.
        shape: f64,
        /// Hard bound on one injected delay.
        cap: Duration,
        seed: u64,
    },
    /// Fail each operation served by `endpoint` with probability `prob`,
    /// drawn deterministically from `seed` and the per-plan ordinal — the
    /// sick-endpoint model that circuit-breaker tests arm. Operations
    /// routed to other endpoints are untouched.
    EndpointTransient {
        endpoint: usize,
        prob: f64,
        seed: u64,
    },
}

/// How a [`FaultPlan::CorruptRead`] plan mangles a read payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip one bit at a seeded position.
    BitFlip,
    /// Drop a seeded number of trailing bytes (at least one).
    Truncate,
}

/// Error class an armed plan assigns to a failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultErrorKind {
    /// Hard failure; not retryable (`SlimError::InjectedFault`).
    Permanent,
    /// Retryable transient failure (`SlimError::Transient`).
    Transient,
    /// Retryable rate-limit failure (`SlimError::Throttled`).
    Throttled,
}

/// Outcome of consulting the fault state for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// Injected latency to apply before completing (or failing) the op.
    pub delay: Duration,
    /// Failure to inject, if any.
    pub error: Option<FaultErrorKind>,
    /// Payload corruption to apply if the operation is a read, if any.
    pub corruption: Option<Corruption>,
}

/// A concrete corruption draw for one read: the kind plus a seeded salt
/// that picks the bit/byte position within the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    pub kind: CorruptionKind,
    pub salt: u64,
}

impl Corruption {
    /// Mangle `buf` in place. A bit flip targets a salted bit; a truncation
    /// drops a salted number of trailing bytes (at least one). Empty
    /// payloads are returned unchanged — there is nothing to corrupt.
    pub fn apply(&self, buf: &mut Vec<u8>) {
        if buf.is_empty() {
            return;
        }
        match self.kind {
            CorruptionKind::BitFlip => {
                let bit = (self.salt as usize) % (buf.len() * 8);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            CorruptionKind::Truncate => {
                let drop = 1 + (self.salt as usize) % buf.len();
                buf.truncate(buf.len() - drop);
            }
        }
    }
}

impl FaultDecision {
    const ALLOW: FaultDecision = FaultDecision {
        delay: Duration::ZERO,
        error: None,
        corruption: None,
    };
}

/// One armed plan plus its private operation counter.
#[derive(Debug)]
struct Armed {
    plan: FaultPlan,
    seen: u64,
}

/// Armed fault state attached to an [`crate::Oss`].
#[derive(Debug, Default)]
pub struct FaultState {
    plans: Mutex<Vec<Armed>>,
}

impl FaultState {
    /// Arm a plan, replacing all existing ones.
    pub fn arm(&self, plan: FaultPlan) {
        *self.plans.lock() = vec![Armed { plan, seen: 0 }];
    }

    /// Arm an additional plan alongside the already-armed ones.
    pub fn arm_also(&self, plan: FaultPlan) {
        self.plans.lock().push(Armed { plan, seen: 0 });
    }

    /// Disarm everything.
    pub fn clear(&self) {
        self.plans.lock().clear();
    }

    /// Decide the fate of the operation on `key` as served by endpoint 0 —
    /// the single-endpoint convenience form of [`FaultState::decide_at`].
    pub fn decide(&self, key: &str) -> FaultDecision {
        self.decide_at(key, 0)
    }

    /// Decide the fate of the operation on `key` as served by `endpoint`;
    /// updates per-plan counters and auto-disarms exhausted one-shot plans.
    /// Endpoint-scoped plans ([`FaultPlan::LatencyPareto`],
    /// [`FaultPlan::EndpointTransient`]) only consider ops routed to their
    /// endpoint; every other plan ignores the endpoint entirely.
    pub fn decide_at(&self, key: &str, endpoint: usize) -> FaultDecision {
        let mut guard = self.plans.lock();
        if guard.is_empty() {
            return FaultDecision::ALLOW;
        }
        let mut delay = Duration::ZERO;
        let mut error = None;
        let mut corruption = None;
        let mut i = 0;
        while i < guard.len() {
            let armed = &mut guard[i];
            let mut disarm = false;
            let fired = match &armed.plan {
                FaultPlan::KeyPrefix(prefix) => key
                    .starts_with(prefix.as_str())
                    .then_some(FaultErrorKind::Permanent),
                FaultPlan::NextOps(n) => {
                    armed.seen += 1;
                    disarm = armed.seen >= *n;
                    Some(FaultErrorKind::Permanent)
                }
                FaultPlan::NthOnPrefix { prefix, nth } => {
                    if key.starts_with(prefix.as_str()) {
                        armed.seen += 1;
                        if armed.seen == *nth {
                            disarm = true;
                            Some(FaultErrorKind::Permanent)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                }
                FaultPlan::TransientProb { prefix, prob, seed } => {
                    if key.starts_with(prefix.as_str()) {
                        armed.seen += 1;
                        (unit_f64(mix64(seed.wrapping_add(armed.seen))) < *prob)
                            .then_some(FaultErrorKind::Transient)
                    } else {
                        None
                    }
                }
                FaultPlan::Throttle { every_nth } => {
                    armed.seen += 1;
                    (*every_nth > 0 && armed.seen % *every_nth == 0)
                        .then_some(FaultErrorKind::Throttled)
                }
                FaultPlan::Latency { prefix, delay: d } => {
                    if key.starts_with(prefix.as_str()) {
                        delay += *d;
                    }
                    None
                }
                FaultPlan::CorruptRead { prefix, kind, seed } => {
                    if key.starts_with(prefix.as_str()) {
                        armed.seen += 1;
                        if corruption.is_none() {
                            corruption = Some(Corruption {
                                kind: *kind,
                                salt: mix64(seed.wrapping_add(armed.seen)),
                            });
                        }
                    }
                    None
                }
                FaultPlan::LatencyPareto {
                    prefix,
                    endpoint: target,
                    scale,
                    shape,
                    cap,
                    seed,
                } => {
                    if key.starts_with(prefix.as_str()) && target.map_or(true, |t| t == endpoint) {
                        armed.seen += 1;
                        let u = unit_f64(mix64(seed.wrapping_add(armed.seen)));
                        delay += pareto_delay(*scale, *shape, *cap, u);
                    }
                    None
                }
                FaultPlan::EndpointTransient {
                    endpoint: target,
                    prob,
                    seed,
                } => {
                    if *target == endpoint {
                        armed.seen += 1;
                        (unit_f64(mix64(seed.wrapping_add(armed.seen))) < *prob)
                            .then_some(FaultErrorKind::Transient)
                    } else {
                        None
                    }
                }
            };
            if error.is_none() {
                error = fired;
            }
            if disarm {
                guard.remove(i);
            } else {
                i += 1;
            }
        }
        FaultDecision {
            delay,
            error,
            corruption,
        }
    }
}

/// Bounded Pareto draw: `scale * (1 - u)^(-1/shape)`, clamped to `cap`.
/// Degenerate shapes (≤ 0, NaN) fall back to the minimum delay so a bad
/// plan can never stall a test forever.
fn pareto_delay(scale: Duration, shape: f64, cap: Duration, u: f64) -> Duration {
    if !(shape > 0.0) {
        return scale.min(cap);
    }
    let factor = (1.0 - u).powf(-1.0 / shape);
    if !factor.is_finite() {
        return cap;
    }
    scale.mul_f64(factor).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fails(st: &FaultState, key: &str) -> bool {
        st.decide(key).error.is_some()
    }

    #[test]
    fn prefix_plan_matches_only_prefix() {
        let st = FaultState::default();
        st.arm(FaultPlan::KeyPrefix("containers/".into()));
        assert!(fails(&st, "containers/12"));
        assert!(!fails(&st, "recipes/a"));
        assert!(fails(&st, "containers/99"), "prefix plan is persistent");
        st.clear();
        assert!(!fails(&st, "containers/12"));
    }

    #[test]
    fn next_ops_plan_auto_disarms() {
        let st = FaultState::default();
        st.arm(FaultPlan::NextOps(2));
        assert!(fails(&st, "a"));
        assert!(fails(&st, "b"));
        assert!(!fails(&st, "c"));
    }

    #[test]
    fn nth_on_prefix_fires_once() {
        let st = FaultState::default();
        st.arm(FaultPlan::NthOnPrefix {
            prefix: "x/".into(),
            nth: 2,
        });
        assert!(!fails(&st, "x/1"));
        assert!(!fails(&st, "y/anything"));
        assert!(fails(&st, "x/2"));
        assert!(!fails(&st, "x/3"));
    }

    #[test]
    fn transient_prob_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let st = FaultState::default();
            st.arm(FaultPlan::TransientProb {
                prefix: String::new(),
                prob: 0.3,
                seed,
            });
            (0..64).map(|_| fails(&st, "k")).collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed replays the same schedule");
        assert_ne!(a, run(8), "different seeds differ");
        let hits = a.iter().filter(|f| **f).count();
        assert!(hits > 5 && hits < 40, "p=0.3 over 64 ops, got {hits}");
        let st = FaultState::default();
        st.arm(FaultPlan::TransientProb {
            prefix: "x/".into(),
            prob: 1.0,
            seed: 1,
        });
        assert!(!fails(&st, "y/other"), "prefix-filtered");
        assert_eq!(
            st.decide("x/k").error,
            Some(FaultErrorKind::Transient),
            "transient kind"
        );
    }

    #[test]
    fn throttle_fires_every_nth_persistently() {
        let st = FaultState::default();
        st.arm(FaultPlan::Throttle { every_nth: 3 });
        let pattern: Vec<bool> = (0..9).map(|_| fails(&st, "k")).collect();
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(st.decide("k").error, None);
        assert_eq!(st.decide("k").error, None);
        assert_eq!(st.decide("k").error, Some(FaultErrorKind::Throttled));
    }

    #[test]
    fn latency_plan_delays_without_failing() {
        let st = FaultState::default();
        st.arm(FaultPlan::Latency {
            prefix: "containers/".into(),
            delay: Duration::from_millis(5),
        });
        let d = st.decide("containers/1/data");
        assert_eq!(d.delay, Duration::from_millis(5));
        assert_eq!(d.error, None);
        assert_eq!(st.decide("recipes/a"), FaultDecision::ALLOW);
    }

    #[test]
    fn plans_compose_and_first_error_wins() {
        let st = FaultState::default();
        st.arm(FaultPlan::Latency {
            prefix: String::new(),
            delay: Duration::from_millis(2),
        });
        st.arm_also(FaultPlan::NthOnPrefix {
            prefix: String::new(),
            nth: 2,
        });
        st.arm_also(FaultPlan::Throttle { every_nth: 2 });
        let first = st.decide("k");
        assert_eq!(first.delay, Duration::from_millis(2));
        assert_eq!(first.error, None);
        let second = st.decide("k");
        assert_eq!(second.delay, Duration::from_millis(2));
        assert_eq!(
            second.error,
            Some(FaultErrorKind::Permanent),
            "earlier-armed NthOnPrefix outranks Throttle on the same op"
        );
        let third = st.decide("k");
        assert_eq!(
            third.error, None,
            "one-shot plan disarmed, throttle off-cycle"
        );
        let fourth = st.decide("k");
        assert_eq!(fourth.error, Some(FaultErrorKind::Throttled));
    }

    #[test]
    fn corrupt_read_plan_mangles_deterministically() {
        let st = FaultState::default();
        st.arm(FaultPlan::CorruptRead {
            prefix: "containers/".into(),
            kind: CorruptionKind::BitFlip,
            seed: 11,
        });
        let d = st.decide("containers/1/data");
        assert_eq!(d.error, None, "corruption succeeds the op");
        let c = d.corruption.expect("matching prefix corrupts");
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        c.apply(&mut a);
        c.apply(&mut b);
        assert_eq!(a, b, "same draw, same damage");
        assert_eq!(a.iter().filter(|&&x| x != 0).count(), 1, "one bit flipped");
        assert_eq!(st.decide("recipes/a").corruption, None, "prefix-filtered");
        // Truncation drops at least one byte and never empties more than
        // the payload.
        let st = FaultState::default();
        st.arm(FaultPlan::CorruptRead {
            prefix: String::new(),
            kind: CorruptionKind::Truncate,
            seed: 3,
        });
        let c = st.decide("k").corruption.unwrap();
        let mut buf = vec![9u8; 16];
        c.apply(&mut buf);
        assert!(buf.len() < 16);
        let mut empty: Vec<u8> = Vec::new();
        c.apply(&mut empty);
        assert!(empty.is_empty(), "empty payload unchanged");
    }

    #[test]
    fn latency_pareto_is_bounded_seeded_and_endpoint_scoped() {
        let plan = FaultPlan::LatencyPareto {
            prefix: String::new(),
            endpoint: Some(1),
            scale: Duration::from_millis(1),
            shape: 1.2,
            cap: Duration::from_millis(50),
            seed: 42,
        };
        let run = || -> Vec<Duration> {
            let st = FaultState::default();
            st.arm(plan.clone());
            (0..256).map(|_| st.decide_at("k", 1).delay).collect()
        };
        let a = run();
        assert_eq!(a, run(), "same seed replays the same straggler schedule");
        assert!(
            a.iter()
                .all(|d| (Duration::from_millis(1)..=Duration::from_millis(50)).contains(d)),
            "every delay within [scale, cap]"
        );
        assert!(
            a.iter().any(|d| *d > Duration::from_millis(5)),
            "heavy tail produces outliers"
        );
        let st = FaultState::default();
        st.arm(plan);
        let other = st.decide_at("k", 0);
        assert_eq!(other, FaultDecision::ALLOW, "scoped to endpoint 1");
        assert_eq!(st.decide_at("k", 1).error, None, "delay-only, op succeeds");
    }

    #[test]
    fn endpoint_transient_only_hits_its_endpoint() {
        let st = FaultState::default();
        st.arm(FaultPlan::EndpointTransient {
            endpoint: 1,
            prob: 1.0,
            seed: 5,
        });
        assert_eq!(st.decide_at("k", 0).error, None);
        assert_eq!(
            st.decide_at("k", 1).error,
            Some(FaultErrorKind::Transient),
            "sick endpoint fails with a retryable kind"
        );
        let run = |seed: u64| -> Vec<bool> {
            let st = FaultState::default();
            st.arm(FaultPlan::EndpointTransient {
                endpoint: 0,
                prob: 0.4,
                seed,
            });
            (0..64)
                .map(|_| st.decide_at("k", 0).error.is_some())
                .collect()
        };
        assert_eq!(run(9), run(9), "seed-deterministic");
        assert_ne!(run(9), run(10), "different seeds differ");
    }

    #[test]
    fn decide_is_decide_at_endpoint_zero() {
        let st = FaultState::default();
        st.arm(FaultPlan::EndpointTransient {
            endpoint: 0,
            prob: 1.0,
            seed: 1,
        });
        assert!(st.decide("k").error.is_some());
    }

    // Golden vector: armed schedules in tests/ and CI replay by seed, so the
    // draw for (seed, ordinal) is pinned.
    #[test]
    fn transient_prob_schedule_is_pinned() {
        let st = FaultState::default();
        st.arm(FaultPlan::TransientProb {
            prefix: "k".into(),
            prob: 0.3,
            seed: 42,
        });
        let schedule: String = (0..32)
            .map(|_| if fails(&st, "k") { 'x' } else { '.' })
            .collect();
        assert_eq!(schedule, ".....xx.......x...xx..xx.x.....x");
    }
}
