//! Admission and scheduling policy: priority classes, per-tenant QoS
//! knobs, and the token bucket that enforces request-rate limits.

use std::time::Duration;

use slim_oss::NetworkModel;
use slim_types::{Result, SlimError};

/// Scheduling class of a request. Lower value = served first.
///
/// Restores outrank backups (a restore is a user waiting for their data;
/// a backup is a window that merely must finish), and both outrank G-node
/// maintenance: offline dedup is free to starve under foreground pressure
/// — the reverse must never happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Foreground restore traffic.
    Restore,
    /// Foreground backup traffic.
    Backup,
    /// Offline G-node maintenance (cycles, retention sweeps).
    Maintenance,
}

/// Number of priority classes.
pub const CLASSES: usize = 3;

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; CLASSES] =
        [Priority::Restore, Priority::Backup, Priority::Maintenance];

    /// Dense index for per-class arrays.
    pub fn idx(self) -> usize {
        match self {
            Priority::Restore => 0,
            Priority::Backup => 1,
            Priority::Maintenance => 2,
        }
    }

    /// Canonical metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Restore => "restore",
            Priority::Backup => "backup",
            Priority::Maintenance => "maintenance",
        }
    }
}

/// Per-tenant QoS contract.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Deficit-round-robin weight: a tenant with weight 2 receives twice
    /// the scheduling quantum of a weight-1 tenant per round.
    pub weight: u32,
    /// Sustained admission rate, requests per second
    /// ([`f64::INFINITY`] = unlimited).
    pub rate_per_sec: f64,
    /// Token-bucket capacity: how many requests may arrive in a burst
    /// before the rate limit bites.
    pub burst: f64,
    /// In-flight byte budget: dispatch holds a tenant's queued work back
    /// while the bytes of its executing requests would exceed this.
    pub max_inflight_bytes: u64,
    /// Bounded admission queue depth, per priority class. Submissions
    /// beyond it are shed with [`SlimError::Overloaded`].
    pub queue_capacity: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            weight: 1,
            rate_per_sec: f64::INFINITY,
            burst: 64.0,
            max_inflight_bytes: u64::MAX,
            queue_capacity: 1024,
        }
    }
}

impl TenantPolicy {
    /// Validate the contract.
    pub fn validate(&self) -> Result<()> {
        if self.weight == 0 {
            return Err(SlimError::InvalidConfig(
                "tenant weight must be >= 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(SlimError::InvalidConfig(
                "tenant queue_capacity must be >= 1".into(),
            ));
        }
        if self.rate_per_sec.is_nan() || self.rate_per_sec <= 0.0 {
            return Err(SlimError::InvalidConfig(
                "tenant rate_per_sec must be > 0".into(),
            ));
        }
        if self.rate_per_sec.is_finite() && self.burst < 1.0 {
            return Err(SlimError::InvalidConfig(
                "tenant burst must be >= 1 when rate limited".into(),
            ));
        }
        Ok(())
    }

    /// Builder-style weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Builder-style rate limit.
    pub fn with_rate(mut self, rate_per_sec: f64, burst: f64) -> Self {
        self.rate_per_sec = rate_per_sec;
        self.burst = burst;
        self
    }

    /// Builder-style in-flight byte budget.
    pub fn with_max_inflight_bytes(mut self, bytes: u64) -> Self {
        self.max_inflight_bytes = bytes;
        self
    }

    /// Builder-style queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// Frontend-wide configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Dispatcher worker threads executing admitted requests.
    pub workers: usize,
    /// Deficit-round-robin quantum, in cost units (bytes). Each scheduling
    /// visit grants a tenant `quantum * weight` deficit; a request runs
    /// once the tenant's accumulated deficit covers its cost.
    pub drr_quantum: u64,
    /// Deadline applied to submissions that do not carry their own; `None`
    /// admits them without one.
    pub default_deadline: Option<Duration>,
    /// Policy applied to tenants without an explicit
    /// [`TenantPolicy`] override.
    pub default_policy: TenantPolicy,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: 4,
            drr_quantum: 256 * 1024,
            default_deadline: None,
            default_policy: TenantPolicy::default(),
        }
    }
}

impl FrontendConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(SlimError::InvalidConfig(
                "frontend workers must be >= 1".into(),
            ));
        }
        if self.drr_quantum == 0 {
            return Err(SlimError::InvalidConfig(
                "frontend drr_quantum must be >= 1".into(),
            ));
        }
        self.default_policy.validate()
    }

    /// Small deterministic settings for unit tests.
    pub fn small_for_tests() -> Self {
        FrontendConfig {
            workers: 2,
            drr_quantum: 64 * 1024,
            default_deadline: None,
            default_policy: TenantPolicy {
                queue_capacity: 64,
                ..TenantPolicy::default()
            },
        }
    }

    /// Couple the dispatcher pool to the OSS channel pool: more dispatchers
    /// than the simulated network has channels cannot increase throughput —
    /// the surplus would only queue inside the OSS semaphore where the
    /// frontend can neither observe nor shed it. Keeping the queueing in
    /// the admission plane is the point of having one.
    pub fn coupled_to_network(mut self, network: &NetworkModel) -> Self {
        self.workers = self.workers.min(network.channels.max(1));
        self
    }

    /// Couple the dispatcher pool to the per-job backup pipeline: a
    /// pipelined job occupies `1 + pipeline_threads` OS threads and holds up
    /// to three sealed containers in flight instead of one, so with
    /// pipelining enabled the dispatcher admits proportionally fewer
    /// concurrent jobs. This keeps the total thread count — and the working
    /// memory the per-tenant `max_inflight_bytes` admission budgets are
    /// sized against — where a sequential deployment put it.
    pub fn coupled_to_pipeline(mut self, pipeline_threads: usize) -> Self {
        if pipeline_threads >= 2 {
            self.workers = (self.workers / (1 + pipeline_threads)).max(1);
        }
        self
    }

    /// Builder-style worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style DRR quantum.
    pub fn with_drr_quantum(mut self, quantum: u64) -> Self {
        self.drr_quantum = quantum;
        self
    }

    /// Builder-style default tenant policy.
    pub fn with_default_policy(mut self, policy: TenantPolicy) -> Self {
        self.default_policy = policy;
        self
    }
}

/// A token bucket over virtual time: `rate_per_sec` tokens drip in, at
/// most `burst` accumulate, one request costs one token.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill: Duration,
}

impl TokenBucket {
    pub fn new(policy: &TenantPolicy, now: Duration) -> Self {
        TokenBucket {
            rate_per_sec: policy.rate_per_sec,
            burst: policy.burst,
            tokens: policy.burst,
            last_refill: now,
        }
    }

    /// Take one token if available; refills lazily from elapsed time.
    pub fn try_take(&mut self, now: Duration) -> bool {
        if self.rate_per_sec.is_infinite() {
            return true;
        }
        let elapsed = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_and_labels() {
        assert!(Priority::Restore < Priority::Backup);
        assert!(Priority::Backup < Priority::Maintenance);
        assert_eq!(
            Priority::ALL.map(|p| p.label()),
            ["restore", "backup", "maintenance"]
        );
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.idx(), i);
        }
    }

    #[test]
    fn policy_validation() {
        assert!(TenantPolicy::default().validate().is_ok());
        assert!(TenantPolicy::default().with_weight(0).validate().is_err());
        assert!(TenantPolicy::default()
            .with_queue_capacity(0)
            .validate()
            .is_err());
        assert!(TenantPolicy::default()
            .with_rate(0.0, 4.0)
            .validate()
            .is_err());
        assert!(TenantPolicy::default()
            .with_rate(5.0, 0.5)
            .validate()
            .is_err());
        assert!(TenantPolicy::default()
            .with_rate(5.0, 5.0)
            .validate()
            .is_ok());

        assert!(FrontendConfig::default().validate().is_ok());
        assert!(FrontendConfig::default()
            .with_workers(0)
            .validate()
            .is_err());
        assert!(FrontendConfig::default()
            .with_drr_quantum(0)
            .validate()
            .is_err());
    }

    #[test]
    fn coupling_caps_workers_at_channel_count() {
        let net = NetworkModel {
            request_latency: Duration::ZERO,
            channel_bandwidth: u64::MAX,
            channels: 2,
        };
        let cfg = FrontendConfig::default()
            .with_workers(16)
            .coupled_to_network(&net);
        assert_eq!(cfg.workers, 2);
        // An unlimited-channel model leaves the pool alone.
        let cfg = FrontendConfig::default()
            .with_workers(16)
            .coupled_to_network(&NetworkModel::instant());
        assert_eq!(cfg.workers, 16);
    }

    #[test]
    fn pipeline_coupling_shrinks_the_dispatcher_pool() {
        // 16 dispatcher threads over 3-thread pipelined jobs = 4 concurrent
        // jobs x 4 threads each: the same 16 OS threads as before.
        let cfg = FrontendConfig::default()
            .with_workers(16)
            .coupled_to_pipeline(3);
        assert_eq!(cfg.workers, 4);
        // Sequential pipelines (0 or 1 threads) leave the pool alone.
        for threads in [0usize, 1] {
            let cfg = FrontendConfig::default()
                .with_workers(16)
                .coupled_to_pipeline(threads);
            assert_eq!(cfg.workers, 16);
        }
        // The pool never collapses below one dispatcher.
        let cfg = FrontendConfig::default()
            .with_workers(2)
            .coupled_to_pipeline(7);
        assert_eq!(cfg.workers, 1);
        cfg.validate().unwrap();
    }

    #[test]
    fn token_bucket_limits_and_refills() {
        let policy = TenantPolicy::default().with_rate(2.0, 2.0);
        let mut bucket = TokenBucket::new(&policy, Duration::ZERO);
        // Burst of 2, then dry.
        assert!(bucket.try_take(Duration::ZERO));
        assert!(bucket.try_take(Duration::ZERO));
        assert!(!bucket.try_take(Duration::ZERO));
        // 0.5s at 2/s refills one token.
        assert!(bucket.try_take(Duration::from_millis(500)));
        assert!(!bucket.try_take(Duration::from_millis(500)));
        // Refill caps at burst.
        assert!(bucket.try_take(Duration::from_secs(100)));
        assert!(bucket.try_take(Duration::from_secs(100)));
        assert!(!bucket.try_take(Duration::from_secs(100)));
    }

    #[test]
    fn unlimited_bucket_never_blocks() {
        let mut bucket = TokenBucket::new(&TenantPolicy::default(), Duration::ZERO);
        for _ in 0..10_000 {
            assert!(bucket.try_take(Duration::ZERO));
        }
    }
}
