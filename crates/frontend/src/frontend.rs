//! The [`Frontend`]: the tenant-facing request plane.
//!
//! Callers submit [`Request`]s for a named tenant and receive a
//! [`Ticket`]. Admission control (token bucket, bounded queue, drain
//! state) runs synchronously in [`Frontend::submit`] and refuses with
//! [`SlimError::Overloaded`]; admitted requests wait in per-tenant
//! priority queues until a dispatcher worker selects them by weighted
//! deficit round-robin and executes them against the tenant's
//! [`slimstore::SlimStore`] deployment. Requests carrying a deadline are
//! shed — not executed late — once it expires.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use slim_telemetry::{Registry, Scope, TelemetrySnapshot};
use slim_types::{Result, SlimError};
use slimstore::TenantStoreManager;

use crate::clock::{Clock, SystemClock};
use crate::policy::{FrontendConfig, Priority, TenantPolicy, CLASSES};
use crate::request::{Request, Ticket};
use crate::scheduler::{Job, Scheduler};

/// Why a request was refused or abandoned.
#[derive(Debug, Clone, Copy)]
enum ShedReason {
    /// The tenant exceeded its admission rate limit.
    RateLimit,
    /// The tenant's queue for the request's class was full.
    QueueFull,
    /// The deadline expired while the request was queued.
    Deadline,
    /// The frontend is draining (or already shut down).
    Draining,
}

impl ShedReason {
    fn counter_name(self) -> &'static str {
        match self {
            ShedReason::RateLimit => "shed.rate_limit",
            ShedReason::QueueFull => "shed.queue_full",
            ShedReason::Deadline => "shed.deadline",
            ShedReason::Draining => "shed.draining",
        }
    }

    fn message(self) -> &'static str {
        match self {
            ShedReason::RateLimit => "tenant rate limit exceeded",
            ShedReason::QueueFull => "tenant admission queue full",
            ShedReason::Deadline => "deadline expired while queued",
            ShedReason::Draining => "frontend is draining",
        }
    }
}

/// State shared between the [`Frontend`] handle and its workers.
struct Shared {
    manager: Arc<TenantStoreManager>,
    config: FrontendConfig,
    clock: Arc<dyn Clock>,
    sched: Mutex<Scheduler>,
    /// Signals both "work arrived / completed" (workers) and "state
    /// changed towards idle" (drainers); everyone re-checks under the lock.
    cond: Condvar,
    registry: Registry,
    scope: Scope,
}

impl Shared {
    /// Refuse or abandon `tenant`'s request for `reason`, keeping the
    /// shed counters coherent: `shed` totals everything, the per-reason
    /// counter splits it, and `timeout` additionally counts deadline sheds
    /// (the ISSUE's name for them).
    fn count_shed(&self, tenant: &str, reason: ShedReason) {
        self.scope.counter("shed").inc();
        self.scope.counter(reason.counter_name()).inc();
        if matches!(reason, ShedReason::Deadline) {
            self.scope.counter("timeout").inc();
        }
        self.tenant_scope(tenant).counter("shed").inc();
    }

    /// Complete a queued job's ticket with [`SlimError::Overloaded`].
    fn shed_job(&self, job: Job, reason: ShedReason) {
        self.count_shed(&job.tenant, reason);
        let message = job.shed_message(reason.message());
        job.ticket.complete(Err(SlimError::Overloaded(message)));
    }

    /// Metric scope of one tenant (`frontend.tenant.<name>`).
    fn tenant_scope(&self, tenant: &str) -> Scope {
        self.scope.child("tenant").child(tenant)
    }

    /// Re-derive every queue/in-flight gauge from scheduler state. Called
    /// under the scheduler lock at each mutation point.
    fn refresh_gauges(&self, sched: &Scheduler) {
        self.scope
            .gauge("queue_depth")
            .set(sched.queued_total as i64);
        self.scope
            .gauge("inflight")
            .set(sched.inflight_total as i64);
        self.scope
            .gauge("inflight_bytes")
            .set(sched.inflight_bytes_total() as i64);
        for class in Priority::ALL {
            self.scope
                .child("class")
                .child(class.label())
                .gauge("queue_depth")
                .set(sched.queued_in_class(class) as i64);
        }
        for tenant in sched.tenant_names() {
            if let Some(entry) = sched.get(&tenant) {
                let scope = self.tenant_scope(&tenant);
                scope.gauge("queue_depth").set(entry.queued() as i64);
                scope
                    .gauge("inflight_bytes")
                    .set(entry.inflight_bytes as i64);
            }
        }
    }

    /// One dispatcher worker: pull the next runnable request, execute it
    /// outside the lock, deliver the outcome, repeat until drained.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut sched = self.sched.lock();
                loop {
                    let now = self.clock.now();
                    let decision = sched.dispatch(now, self.config.drr_quantum);
                    if !decision.expired.is_empty() {
                        self.refresh_gauges(&sched);
                        for expired in decision.expired {
                            // Ticket completion takes only the ticket's own
                            // lock; waiters never take the scheduler lock,
                            // so completing here cannot deadlock.
                            self.shed_job(expired, ShedReason::Deadline);
                        }
                    }
                    if let Some(job) = decision.job {
                        self.refresh_gauges(&sched);
                        break Some(job);
                    }
                    if sched.draining && sched.queued_total == 0 {
                        break None;
                    }
                    self.cond.wait(&mut sched);
                }
            };
            let Some(job) = job else { return };

            let Job {
                tenant,
                class,
                cost,
                admitted_at,
                request,
                store,
                ticket,
                deadline,
                ..
            } = job;
            self.scope
                .histogram(&format!("queue_wait_ns.{}", class.label()))
                .record_duration(admitted_at.elapsed());
            // Propagate whatever deadline budget survived the queue into the
            // execution as the ambient `Deadline`: every layer below —
            // retries, hedged reads, prefetch workers — sees the remaining
            // budget and stops issuing OSS calls once it is spent.
            let remaining = deadline.map(|d| d.saturating_sub(self.clock.now()));
            let ambient = match remaining {
                Some(budget) => slim_types::Deadline::within(budget),
                None => slim_types::Deadline::never(),
            };
            let outcome = ambient.scope(|| request.execute(&store));

            let latency = admitted_at.elapsed();
            self.scope
                .histogram(&format!("latency_ns.{}", class.label()))
                .record_duration(latency);
            self.tenant_scope(&tenant)
                .histogram("latency_ns")
                .record_duration(latency);
            self.scope
                .counter(if outcome.is_ok() {
                    "completed"
                } else {
                    "failed"
                })
                .inc();

            {
                let mut sched = self.sched.lock();
                sched.complete(&tenant, class, cost);
                self.refresh_gauges(&sched);
            }
            // Wake queued dispatchers (a gate may have opened) and any
            // drainer waiting for idle.
            self.cond.notify_all();
            ticket.complete(outcome);
        }
    }
}

/// Builds a [`Frontend`] over a [`TenantStoreManager`].
pub struct FrontendBuilder {
    manager: Arc<TenantStoreManager>,
    config: FrontendConfig,
    clock: Arc<dyn Clock>,
    policies: Vec<(String, TenantPolicy)>,
}

impl FrontendBuilder {
    /// Start building over `manager`.
    pub fn new(manager: Arc<TenantStoreManager>) -> Self {
        FrontendBuilder {
            manager,
            config: FrontendConfig::default(),
            clock: Arc::new(SystemClock::new()),
            policies: Vec::new(),
        }
    }

    /// Frontend-wide configuration.
    pub fn with_config(mut self, config: FrontendConfig) -> Self {
        self.config = config;
        self
    }

    /// Time source for rate limiting and deadlines (tests pass a
    /// [`crate::ManualClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Per-tenant QoS override applied before the frontend starts.
    pub fn with_tenant_policy(mut self, tenant: &str, policy: TenantPolicy) -> Self {
        self.policies.push((tenant.to_string(), policy));
        self
    }

    /// Validate, spawn the dispatcher pool, and hand back the frontend.
    pub fn start(self) -> Result<Frontend> {
        self.config.validate()?;
        for (_, policy) in &self.policies {
            policy.validate()?;
        }
        let registry = Registry::new();
        let scope = registry.scope("frontend");
        let shared = Arc::new(Shared {
            manager: self.manager,
            config: self.config,
            clock: self.clock,
            sched: Mutex::new(Scheduler::new()),
            cond: Condvar::new(),
            registry,
            scope,
        });
        {
            let now = shared.clock.now();
            let mut sched = shared.sched.lock();
            for (tenant, policy) in self.policies {
                sched.set_policy(&Arc::from(tenant.as_str()), policy, now);
            }
        }
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("slim-frontend-{i}"))
                    .spawn(move || shared.worker_loop())
                    .map_err(|e| SlimError::InvalidConfig(format!("spawning frontend worker: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Frontend {
            shared,
            workers: Mutex::new(workers),
        })
    }
}

/// Point-in-time queue/QoS state for operator tooling (`slim stats --qos`).
#[derive(Debug, Clone)]
pub struct FrontendStats {
    /// Requests waiting in admission queues.
    pub queued: usize,
    /// Requests currently executing.
    pub inflight: usize,
    /// Whether the frontend has stopped admitting.
    pub draining: bool,
    /// Queue depth per priority class, indexed like [`Priority::ALL`].
    pub queued_by_class: [usize; CLASSES],
    /// Per-tenant queue state, sorted by tenant name.
    pub tenants: Vec<TenantQueueStats>,
}

/// One tenant's slice of [`FrontendStats`].
#[derive(Debug, Clone)]
pub struct TenantQueueStats {
    pub tenant: String,
    pub queued: usize,
    pub inflight_bytes: u64,
    pub weight: u32,
}

/// The tenant-facing request plane. See the crate docs for the admission
/// and scheduling model.
pub struct Frontend {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Frontend {
    /// Submit `request` for `tenant` under the frontend's default
    /// deadline. Returns a [`Ticket`] on admission, or
    /// [`SlimError::Overloaded`] when shed at the door.
    pub fn submit(&self, tenant: &str, request: Request) -> Result<Ticket> {
        self.submit_with_deadline(tenant, request, self.shared.config.default_deadline)
    }

    /// Submit with an explicit deadline (measured from admission; `None`
    /// waits forever). A request still queued when its deadline expires is
    /// completed with [`SlimError::Overloaded`] instead of executing.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        request: Request,
        deadline: Option<Duration>,
    ) -> Result<Ticket> {
        let shared = &self.shared;
        // Resolve (possibly build) the deployment before taking the
        // scheduler lock: first-touch builds replay journals and load
        // indexes, and an invalid tenant name must fail fast here.
        let store = shared.manager.get_or_create(tenant)?;
        let class = request.priority();
        let cost = request.cost_bytes();
        let tenant_arc: Arc<str> = Arc::from(tenant);

        let mut sched = shared.sched.lock();
        if sched.draining {
            shared.count_shed(tenant, ShedReason::Draining);
            return Err(SlimError::Overloaded(format!(
                "{} for tenant {tenant} refused: {}",
                request.label(),
                ShedReason::Draining.message()
            )));
        }
        let now = shared.clock.now();
        let entry = sched.entry(&tenant_arc, &shared.config.default_policy, now);
        if !entry.bucket.try_take(now) {
            shared.count_shed(tenant, ShedReason::RateLimit);
            return Err(SlimError::Overloaded(format!(
                "{} for tenant {tenant} refused: {}",
                request.label(),
                ShedReason::RateLimit.message()
            )));
        }
        if entry.queued_in(class) >= entry.policy.queue_capacity {
            shared.count_shed(tenant, ShedReason::QueueFull);
            return Err(SlimError::Overloaded(format!(
                "{} for tenant {tenant} refused: {} ({} queued in class {})",
                request.label(),
                ShedReason::QueueFull.message(),
                entry.queued_in(class),
                class.label()
            )));
        }
        let (ticket, state) = Ticket::new();
        sched.enqueue(Job {
            tenant: tenant_arc,
            class,
            cost,
            deadline: deadline.map(|d| now + d),
            admitted_at: Instant::now(),
            request,
            store,
            ticket: state,
        });
        shared.scope.counter("admitted").inc();
        shared.refresh_gauges(&sched);
        drop(sched);
        shared.cond.notify_all();
        Ok(ticket)
    }

    /// Install (or replace) `tenant`'s QoS policy. Queued and in-flight
    /// work is unaffected; the token bucket restarts full under the new
    /// rate.
    pub fn set_tenant_policy(&self, tenant: &str, policy: TenantPolicy) -> Result<()> {
        policy.validate()?;
        let now = self.shared.clock.now();
        self.shared
            .sched
            .lock()
            .set_policy(&Arc::from(tenant), policy, now);
        Ok(())
    }

    /// Shed every queued request whose deadline already expired (not just
    /// queue heads, which dispatch sheds on its own). Returns how many
    /// were shed. Useful for tests and for operators running the clock
    /// forward; dispatchers converge to the same outcome lazily.
    pub fn shed_expired(&self) -> usize {
        let now = self.shared.clock.now();
        let expired = {
            let mut sched = self.shared.sched.lock();
            let expired = sched.sweep_expired(now);
            self.shared.refresh_gauges(&sched);
            expired
        };
        let n = expired.len();
        for job in expired {
            self.shared.shed_job(job, ShedReason::Deadline);
        }
        if n > 0 {
            self.shared.cond.notify_all();
        }
        n
    }

    /// Stop admitting (new submissions are refused with
    /// [`SlimError::Overloaded`]) and block until every already-admitted
    /// request has completed or been shed by its deadline.
    pub fn drain(&self) {
        let mut sched = self.shared.sched.lock();
        sched.draining = true;
        self.shared.cond.notify_all();
        while !sched.is_idle() {
            self.shared.cond.wait(&mut sched);
        }
        self.shared.refresh_gauges(&sched);
    }

    /// Drain, then join the dispatcher pool. Idempotent; also invoked by
    /// [`Drop`], so letting a frontend fall out of scope never abandons
    /// admitted work.
    pub fn shutdown(&self) {
        self.drain();
        let workers = std::mem::take(&mut *self.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
    }

    /// Whether the frontend is draining (or shut down).
    pub fn is_draining(&self) -> bool {
        self.shared.sched.lock().draining
    }

    /// The tenant deployment manager behind this frontend.
    pub fn manager(&self) -> &Arc<TenantStoreManager> {
        &self.shared.manager
    }

    /// The frontend's configuration.
    pub fn config(&self) -> &FrontendConfig {
        &self.shared.config
    }

    /// The metric registry the frontend records into.
    pub fn telemetry(&self) -> &Registry {
        &self.shared.registry
    }

    /// A point-in-time copy of the frontend's metrics.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.shared.registry.snapshot()
    }

    /// Current queue/QoS state for operator tooling.
    pub fn stats(&self) -> FrontendStats {
        let sched = self.shared.sched.lock();
        let mut queued_by_class = [0usize; CLASSES];
        for class in Priority::ALL {
            queued_by_class[class.idx()] = sched.queued_in_class(class);
        }
        let tenants = sched
            .tenant_names()
            .into_iter()
            .filter_map(|name| {
                sched.get(&name).map(|entry| TenantQueueStats {
                    tenant: name.to_string(),
                    queued: entry.queued(),
                    inflight_bytes: entry.inflight_bytes,
                    weight: entry.policy.weight,
                })
            })
            .collect();
        FrontendStats {
            queued: sched.queued_total,
            inflight: sched.inflight_total,
            draining: sched.draining,
            queued_by_class,
            tenants,
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use slim_oss::rocks::RocksConfig;
    use slim_oss::NetworkModel;
    use slim_types::{FileId, SlimConfig};

    fn manager() -> Arc<TenantStoreManager> {
        Arc::new(
            TenantStoreManager::in_memory(NetworkModel::instant())
                .with_config(SlimConfig::small_for_tests())
                .with_rocks_config(RocksConfig::small_for_tests()),
        )
    }

    fn frontend() -> Frontend {
        FrontendBuilder::new(manager())
            .with_config(FrontendConfig::small_for_tests())
            .start()
            .unwrap()
    }

    fn backup(seed: u8, len: usize) -> Request {
        Request::Backup {
            files: vec![(FileId::new("f"), vec![seed; len])],
            jobs: 1,
        }
    }

    #[test]
    fn backup_then_restore_roundtrips_through_the_frontend() {
        let fe = frontend();
        let payload = b"frontend payload".repeat(700);
        let ticket = fe
            .submit(
                "acme",
                Request::Backup {
                    files: vec![(FileId::new("db/f"), payload.clone())],
                    jobs: 1,
                },
            )
            .unwrap();
        let report = ticket.wait().unwrap().into_backup().unwrap();
        let version = report.version;
        let ticket = fe
            .submit(
                "acme",
                Request::RestoreFile {
                    file: FileId::new("db/f"),
                    version,
                },
            )
            .unwrap();
        let (bytes, _) = ticket.wait().unwrap().into_file().unwrap();
        assert_eq!(bytes, payload);
        let snap = fe.telemetry_snapshot();
        assert_eq!(snap.counter("frontend.admitted"), 2);
        assert_eq!(snap.counter("frontend.completed"), 2);
        assert_eq!(snap.counter("frontend.shed"), 0);
    }

    #[test]
    fn invalid_tenant_is_rejected_before_admission() {
        let fe = frontend();
        let err = fe.submit("../escape", backup(1, 64)).unwrap_err();
        assert!(!matches!(err, SlimError::Overloaded(_)), "got {err:?}");
        assert_eq!(fe.telemetry_snapshot().counter("frontend.admitted"), 0);
    }

    #[test]
    fn rate_limit_sheds_with_overloaded() {
        let clock = Arc::new(ManualClock::new());
        let fe = FrontendBuilder::new(manager())
            .with_config(FrontendConfig::small_for_tests())
            .with_clock(clock.clone())
            .with_tenant_policy("acme", TenantPolicy::default().with_rate(1.0, 1.0))
            .start()
            .unwrap();
        let first = fe.submit("acme", backup(1, 64)).unwrap();
        first.wait().unwrap().into_backup().unwrap();
        // Bucket empty, clock frozen: the second submit is refused.
        match fe.submit("acme", backup(2, 64)) {
            Err(SlimError::Overloaded(msg)) => assert!(msg.contains("rate limit"), "{msg}"),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // A second's worth of refill readmits.
        clock.advance(Duration::from_secs(1));
        fe.submit("acme", backup(3, 64))
            .unwrap()
            .wait()
            .unwrap()
            .into_backup()
            .unwrap();
        let snap = fe.telemetry_snapshot();
        assert_eq!(snap.counter("frontend.shed"), 1);
        assert_eq!(snap.counter("frontend.shed.rate_limit"), 1);
    }

    #[test]
    fn queue_deadline_sheds_instead_of_executing_late() {
        // A frozen manual clock makes a zero deadline expire at admission:
        // whichever dispatcher (or explicit sweep) reaches the request
        // first must shed it — it can never execute.
        let clock = Arc::new(ManualClock::new());
        let fe = FrontendBuilder::new(manager())
            .with_config(FrontendConfig::small_for_tests())
            .with_clock(clock)
            .start()
            .unwrap();
        let doomed = fe
            .submit_with_deadline("acme", backup(2, 64), Some(Duration::ZERO))
            .unwrap();
        let swept = fe.shed_expired();
        match doomed.wait() {
            Err(SlimError::Overloaded(msg)) => {
                assert!(msg.contains("deadline"), "{msg}")
            }
            other => panic!("expected deadline shed, got {other:?}"),
        }
        assert!(swept <= 1, "shed exactly once, by sweep or dispatch");
        let snap = fe.telemetry_snapshot();
        assert_eq!(snap.counter("frontend.shed.deadline"), 1);
        assert_eq!(snap.counter("frontend.timeout"), 1);
        assert_eq!(snap.counter("frontend.completed"), 0);
    }

    #[test]
    fn drain_refuses_new_work_and_finishes_admitted_work() {
        let fe = frontend();
        let admitted = fe.submit("acme", backup(1, 4096)).unwrap();
        fe.drain();
        assert!(fe.is_draining());
        // Admitted before drain: completes.
        admitted.wait().unwrap().into_backup().unwrap();
        // Submitted after drain: refused.
        match fe.submit("acme", backup(2, 64)) {
            Err(SlimError::Overloaded(msg)) => assert!(msg.contains("draining"), "{msg}"),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(fe.telemetry_snapshot().counter("frontend.shed.draining"), 1);
        fe.shutdown();
        fe.shutdown(); // idempotent
    }

    #[test]
    fn stats_reports_queue_state() {
        let fe = frontend();
        let t = fe.submit("acme", backup(1, 1024)).unwrap();
        t.wait().unwrap().into_backup().unwrap();
        let stats = fe.stats();
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.inflight, 0);
        assert!(!stats.draining);
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].tenant, "acme");
    }

    #[test]
    fn maintenance_runs_through_the_frontend() {
        let fe = frontend();
        let report = fe
            .submit("acme", backup(7, 2048))
            .unwrap()
            .wait()
            .unwrap()
            .into_backup()
            .unwrap();
        let _stats = fe
            .submit(
                "acme",
                Request::GNodeCycle {
                    version: report.version,
                },
            )
            .unwrap()
            .wait()
            .unwrap()
            .into_maintenance()
            .unwrap();
        // The maintenance request ran to completion through the same
        // queues as foreground work.
        let snap = fe.telemetry_snapshot();
        assert_eq!(snap.counter("frontend.completed"), 2);
        assert!(snap
            .histogram("frontend.latency_ns.maintenance")
            .is_some_and(|h| h.count == 1));
    }
}
