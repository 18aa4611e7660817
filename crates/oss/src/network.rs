//! The OSS network cost model.
//!
//! Models the three properties of cloud object storage that SLIMSTORE's
//! design reacts to (§III-A, §V-A):
//!
//! 1. every request pays a round-trip **latency**;
//! 2. a single transfer is limited to the **per-channel bandwidth**;
//! 3. up to `channels` transfers may run **in parallel**, so aggregate
//!    bandwidth scales with concurrency until the channel limit.
//!
//! Costs are levied by actually sleeping the calling thread, so concurrency
//! effects (prefetch threads hiding latency, parallel restore jobs) emerge
//! naturally. For unit tests [`NetworkModel::instant`] makes every operation
//! free while the byte accounting still happens.

use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Network cost parameters of the simulated OSS.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Round-trip latency charged to every request.
    pub request_latency: Duration,
    /// Sustained transfer rate of one channel, bytes per second.
    pub channel_bandwidth: u64,
    /// Maximum concurrent transfers before queueing.
    pub channels: usize,
}

impl NetworkModel {
    /// Zero-cost model: no latency, no bandwidth limit (unit tests).
    pub fn instant() -> Self {
        NetworkModel {
            request_latency: Duration::ZERO,
            channel_bandwidth: u64::MAX,
            channels: usize::MAX,
        }
    }

    /// A scaled-down OSS-like model usable inside benchmarks: noticeable
    /// per-request latency, modest single-channel bandwidth, wide parallelism.
    ///
    /// The absolute values are smaller than a real OSS so experiments finish
    /// in seconds; the *ratios* (latency ≫ local access, multi-channel
    /// scaling) match the paper's environment.
    pub fn oss_like() -> Self {
        NetworkModel {
            request_latency: Duration::from_micros(400),
            channel_bandwidth: 400 * 1024 * 1024,
            channels: 64,
        }
    }

    /// Whether this model performs any waiting at all.
    pub fn is_instant(&self) -> bool {
        self.request_latency.is_zero() && self.channel_bandwidth == u64::MAX
    }

    /// The pure transfer duration for `bytes` on one channel.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if self.channel_bandwidth == u64::MAX {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 / self.channel_bandwidth as f64)
    }
}

/// A counting semaphore bounding concurrent transfers ("channels").
pub(crate) struct ChannelPool {
    capacity: usize,
    state: Mutex<usize>, // channels currently in use
    cond: Condvar,
}

impl ChannelPool {
    pub fn new(capacity: usize) -> Self {
        ChannelPool {
            // A zero-channel pool can never admit anyone and every acquire
            // would block forever; the narrowest meaningful network has one
            // channel.
            capacity: capacity.max(1),
            state: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    /// Acquire a channel, blocking while all are busy.
    pub fn acquire(&self) -> ChannelGuard<'_> {
        if self.capacity == usize::MAX {
            return ChannelGuard { pool: None };
        }
        let mut used = self.state.lock();
        while *used >= self.capacity {
            self.cond.wait(&mut used);
        }
        *used += 1;
        ChannelGuard { pool: Some(self) }
    }
}

/// RAII guard returning the channel on drop.
pub(crate) struct ChannelGuard<'a> {
    pool: Option<&'a ChannelPool>,
}

impl Drop for ChannelGuard<'_> {
    fn drop(&mut self) {
        if let Some(pool) = self.pool {
            let mut used = pool.state.lock();
            *used -= 1;
            pool.cond.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn instant_model_costs_nothing() {
        let m = NetworkModel::instant();
        assert!(m.is_instant());
        assert_eq!(m.transfer_time(u64::MAX / 2), Duration::ZERO);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let m = NetworkModel {
            request_latency: Duration::ZERO,
            channel_bandwidth: 1024,
            channels: 1,
        };
        assert_eq!(m.transfer_time(1024), Duration::from_secs(1));
        assert_eq!(m.transfer_time(512), Duration::from_millis(500));
    }

    #[test]
    fn channel_pool_bounds_concurrency() {
        let pool = Arc::new(ChannelPool::new(2));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = pool.clone();
            let live = live.clone();
            let peak = peak.clone();
            handles.push(std::thread::spawn(move || {
                let _g = pool.acquire();
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                live.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "semaphore exceeded");
    }

    #[test]
    fn unlimited_pool_never_blocks() {
        let pool = ChannelPool::new(usize::MAX);
        let _a = pool.acquire();
        let _b = pool.acquire();
    }

    #[test]
    fn zero_capacity_pool_is_clamped_to_one() {
        // Regression: `ChannelPool::new(0)` used to build a pool no acquire
        // could ever pass (`used >= capacity` holds at 0), so the first
        // request on a `channels == 0` model deadlocked forever. The clamp
        // makes such a model behave as a single serial channel.
        let pool = ChannelPool::new(0);
        let first = pool.acquire();
        drop(first);
        let _second = pool.acquire();
    }
}
