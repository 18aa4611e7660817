//! The admission queue and deficit-round-robin dispatch state.
//!
//! One mutex-guarded [`Scheduler`] holds every tenant's bounded per-class
//! queues, token bucket, DRR deficit counters and in-flight accounting.
//! Dispatcher workers call [`Scheduler::dispatch`] under the lock to pick
//! the next request:
//!
//! * **strict priority across classes** — restore before backup before
//!   maintenance; a class is consulted only when every higher class has
//!   nothing dispatchable, so offline dedup can never starve foreground
//!   work (the reverse, foreground starving maintenance, is by design);
//! * **weighted deficit round-robin across tenants within a class** —
//!   every scheduling visit grants a tenant `quantum * weight` deficit and
//!   its head request runs once the deficit covers the request cost, so a
//!   tenant flooding huge backups cannot crowd out a tenant of small ones
//!   beyond its weight share;
//! * **in-flight gates** — a tenant's queued work is held back (without
//!   losing its place) while its executing bytes exceed the policy budget,
//!   and maintenance for a tenant runs only exclusively: never while any
//!   of that tenant's foreground requests execute, and vice versa, because
//!   the G-node is an *offline* component (§III-B) — its sweeps assume no
//!   concurrent backup on the same deployment;
//! * **deadline shedding** — expired requests found at the head of a queue
//!   are removed and completed with [`slim_types::SlimError::Overloaded`]
//!   instead of being executed late.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slimstore::SlimStore;

use crate::policy::{Priority, TenantPolicy, TokenBucket, CLASSES};
use crate::request::{Request, TicketState};

/// One admitted request waiting in (or leaving) the queues.
pub(crate) struct Job {
    pub tenant: Arc<str>,
    pub class: Priority,
    pub cost: u64,
    /// Absolute virtual deadline; `None` waits forever.
    pub deadline: Option<Duration>,
    /// Real admission time (latency histograms).
    pub admitted_at: Instant,
    pub request: Request,
    pub store: Arc<SlimStore>,
    pub ticket: Arc<TicketState>,
}

impl Job {
    /// Whether the deadline passed at virtual time `now`.
    pub fn expired(&self, now: Duration) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }

    /// Human-readable shed message.
    pub fn shed_message(&self, why: &str) -> String {
        format!(
            "{} for tenant {} {}",
            self.request.label(),
            self.tenant,
            why
        )
    }
}

/// Per-tenant scheduling state.
pub(crate) struct TenantEntry {
    pub policy: TenantPolicy,
    pub bucket: TokenBucket,
    queues: [VecDeque<Job>; CLASSES],
    deficit: [u64; CLASSES],
    pub inflight_foreground: usize,
    pub inflight_maintenance: usize,
    pub inflight_bytes: u64,
}

impl TenantEntry {
    fn new(policy: TenantPolicy, now: Duration) -> Self {
        TenantEntry {
            bucket: TokenBucket::new(&policy, now),
            policy,
            queues: Default::default(),
            deficit: [0; CLASSES],
            inflight_foreground: 0,
            inflight_maintenance: 0,
            inflight_bytes: 0,
        }
    }

    /// Total queued requests across classes.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Queued requests in one class.
    pub fn queued_in(&self, class: Priority) -> usize {
        self.queues[class.idx()].len()
    }

    /// Whether `job` may start now under the in-flight gates.
    fn gates_open(&self, job: &Job) -> bool {
        let exclusive_ok = match job.class {
            // Maintenance is offline: requires the tenant idle.
            Priority::Maintenance => {
                self.inflight_foreground == 0 && self.inflight_maintenance == 0
            }
            // Foreground never overlaps a running maintenance pass.
            _ => self.inflight_maintenance == 0,
        };
        // The byte budget meters aggregate in-flight volume; a tenant with
        // nothing in flight may always start one request, so a single
        // request larger than the budget cannot deadlock forever.
        let budget_ok = self.inflight_bytes == 0
            || self.inflight_bytes.saturating_add(job.cost) <= self.policy.max_inflight_bytes;
        exclusive_ok && budget_ok
    }
}

/// What [`Scheduler::dispatch`] decided.
pub(crate) struct Dispatch {
    /// The request to execute, if any became runnable.
    pub job: Option<Job>,
    /// Requests shed because their deadline expired in the queue. The
    /// caller completes their tickets and records the shed metrics.
    pub expired: Vec<Job>,
}

/// The frontend's entire mutable scheduling state (guarded by one mutex in
/// the frontend).
pub(crate) struct Scheduler {
    tenants: HashMap<Arc<str>, TenantEntry>,
    /// Tenants with queued work, per class; each tenant appears at most
    /// once per class list.
    active: [VecDeque<Arc<str>>; CLASSES],
    pub queued_total: usize,
    pub inflight_total: usize,
    pub draining: bool,
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            tenants: HashMap::new(),
            active: Default::default(),
            queued_total: 0,
            inflight_total: 0,
            draining: false,
        }
    }

    /// The entry for `tenant`, created from `default_policy` on first use.
    pub fn entry(
        &mut self,
        tenant: &Arc<str>,
        default_policy: &TenantPolicy,
        now: Duration,
    ) -> &mut TenantEntry {
        self.tenants
            .entry(tenant.clone())
            .or_insert_with(|| TenantEntry::new(default_policy.clone(), now))
    }

    /// The existing entry for `tenant`, if any.
    pub fn get(&self, tenant: &str) -> Option<&TenantEntry> {
        self.tenants.get(tenant)
    }

    /// Replace a tenant's policy (queues and in-flight state survive; the
    /// token bucket restarts full under the new rate).
    pub fn set_policy(&mut self, tenant: &Arc<str>, policy: TenantPolicy, now: Duration) {
        let entry = self.entry(tenant, &policy, now);
        entry.bucket = TokenBucket::new(&policy, now);
        entry.policy = policy;
    }

    /// Enqueue an admitted job (capacity was already checked under the same
    /// lock hold).
    pub fn enqueue(&mut self, job: Job) {
        let tenant = job.tenant.clone();
        let class = job.class.idx();
        let entry = self
            .tenants
            .get_mut(&tenant)
            .expect("entry created at admission");
        entry.queues[class].push_back(job);
        self.queued_total += 1;
        // A sweep can leave a stale occurrence of the tenant in the active
        // list, so membership — not prior queue emptiness — decides.
        if !self.active[class].contains(&tenant) {
            self.active[class].push_back(tenant);
        }
    }

    /// Pick the next runnable request, shedding expired queue heads on the
    /// way. Called under the scheduler lock.
    pub fn dispatch(&mut self, now: Duration, quantum: u64) -> Dispatch {
        let mut expired = Vec::new();
        for class in 0..CLASSES {
            // Deficit rounds: keep cycling the class while some tenant has
            // an eligible head that merely lacks deficit. Terminates
            // because each visit grows that tenant's deficit by at least
            // `quantum >= 1` and costs are finite.
            loop {
                let mut underfunded = false;
                let scan = self.active[class].len();
                if scan == 0 {
                    break;
                }
                for _ in 0..scan {
                    let Some(tenant) = self.active[class].pop_front() else {
                        break;
                    };
                    let entry = self.tenants.get_mut(&tenant).expect("active implies entry");
                    // Shed expired heads before spending deficit on them.
                    while entry.queues[class]
                        .front()
                        .is_some_and(|job| job.expired(now))
                    {
                        let job = entry.queues[class].pop_front().expect("front checked");
                        self.queued_total -= 1;
                        expired.push(job);
                    }
                    let Some(head) = entry.queues[class].front() else {
                        entry.deficit[class] = 0;
                        continue; // drained: drop from the active list
                    };
                    if !entry.gates_open(head) {
                        // Parked on an in-flight gate: keep the place in
                        // line, spend no deficit, re-check after the next
                        // completion.
                        self.active[class].push_back(tenant);
                        continue;
                    }
                    // A tenant left at the front mid-visit (below) still
                    // holds the deficit for its head and gets no new quantum.
                    if entry.deficit[class] < head.cost {
                        entry.deficit[class] = entry.deficit[class]
                            .saturating_add(quantum.saturating_mul(u64::from(entry.policy.weight)));
                    }
                    if entry.deficit[class] < head.cost {
                        underfunded = true;
                        self.active[class].push_back(tenant);
                        continue;
                    }
                    let job = entry.queues[class].pop_front().expect("head exists");
                    entry.deficit[class] -= job.cost;
                    self.queued_total -= 1;
                    entry.inflight_bytes = entry.inflight_bytes.saturating_add(job.cost);
                    match job.class {
                        Priority::Maintenance => entry.inflight_maintenance += 1,
                        _ => entry.inflight_foreground += 1,
                    }
                    self.inflight_total += 1;
                    if entry.queues[class].is_empty() {
                        // An idle tenant carries no deficit into its next
                        // burst (classic DRR; prevents banked priority).
                        entry.deficit[class] = 0;
                    } else if entry.queues[class]
                        .front()
                        .is_some_and(|next| entry.deficit[class] >= next.cost)
                    {
                        // The visit is not over: one dispatch serves one
                        // job, so the rest of this tenant's quantum is
                        // spent by the next calls, before anyone else's.
                        self.active[class].push_front(tenant);
                    } else {
                        self.active[class].push_back(tenant);
                    }
                    return Dispatch {
                        job: Some(job),
                        expired,
                    };
                }
                if !underfunded {
                    break;
                }
            }
        }
        Dispatch { job: None, expired }
    }

    /// Sweep *every* queued request (not just heads) for expired deadlines.
    pub fn sweep_expired(&mut self, now: Duration) -> Vec<Job> {
        let mut expired = Vec::new();
        for entry in self.tenants.values_mut() {
            for queue in entry.queues.iter_mut() {
                let before = queue.len();
                let mut kept = VecDeque::with_capacity(before);
                for job in queue.drain(..) {
                    if job.expired(now) {
                        expired.push(job);
                    } else {
                        kept.push_back(job);
                    }
                }
                *queue = kept;
            }
        }
        self.queued_total -= expired.len();
        // Tenants whose queues drained entirely will be dropped from the
        // active lists lazily by the next dispatch scan.
        expired
    }

    /// Mark one request finished and release its in-flight accounting.
    pub fn complete(&mut self, tenant: &str, class: Priority, cost: u64) {
        let entry = self
            .tenants
            .get_mut(tenant)
            .expect("completed job had an entry");
        entry.inflight_bytes = entry.inflight_bytes.saturating_sub(cost);
        match class {
            Priority::Maintenance => entry.inflight_maintenance -= 1,
            _ => entry.inflight_foreground -= 1,
        }
        self.inflight_total -= 1;
    }

    /// Whether nothing is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.queued_total == 0 && self.inflight_total == 0
    }

    /// Queue depth of one class across all tenants.
    pub fn queued_in_class(&self, class: Priority) -> usize {
        self.tenants.values().map(|t| t.queued_in(class)).sum()
    }

    /// Bytes of all executing requests across tenants.
    pub fn inflight_bytes_total(&self) -> u64 {
        self.tenants.values().map(|t| t.inflight_bytes).sum()
    }

    /// Tenant names with state, sorted (stats reporting).
    pub fn tenant_names(&self) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = self.tenants.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::rocks::RocksConfig;
    use slim_types::{FileId, SlimConfig, VersionId};
    use slimstore::SlimStoreBuilder;

    fn test_store() -> Arc<SlimStore> {
        Arc::new(
            SlimStoreBuilder::in_memory()
                .with_config(SlimConfig::small_for_tests())
                .with_rocks_config(RocksConfig::small_for_tests())
                .build()
                .unwrap(),
        )
    }

    fn job(store: &Arc<SlimStore>, tenant: &Arc<str>, class: Priority, cost: u64) -> Job {
        let request = match class {
            Priority::Backup => Request::Backup {
                files: vec![(FileId::new("f"), vec![0u8; cost as usize])],
                jobs: 1,
            },
            Priority::Restore => Request::RestoreFile {
                file: FileId::new("f"),
                version: VersionId(0),
            },
            Priority::Maintenance => Request::GNodeCycle {
                version: VersionId(0),
            },
        };
        let (_ticket, state) = crate::request::Ticket::new();
        Job {
            tenant: tenant.clone(),
            class,
            cost,
            deadline: None,
            admitted_at: Instant::now(),
            request,
            store: store.clone(),
            ticket: state,
        }
    }

    fn sched_with(tenants: &[&Arc<str>]) -> Scheduler {
        let mut sched = Scheduler::new();
        for t in tenants {
            sched.entry(t, &TenantPolicy::default(), Duration::ZERO);
        }
        sched
    }

    #[test]
    fn strict_priority_across_classes() {
        let store = test_store();
        let t: Arc<str> = Arc::from("acme");
        let mut sched = sched_with(&[&t]);
        sched.enqueue(job(&store, &t, Priority::Maintenance, 1));
        sched.enqueue(job(&store, &t, Priority::Backup, 1));
        sched.enqueue(job(&store, &t, Priority::Restore, 1));
        let first = sched.dispatch(Duration::ZERO, 1024).job.unwrap();
        assert_eq!(first.class, Priority::Restore);
        sched.complete(&t, first.class, first.cost);
        let second = sched.dispatch(Duration::ZERO, 1024).job.unwrap();
        assert_eq!(second.class, Priority::Backup);
        sched.complete(&t, second.class, second.cost);
        let third = sched.dispatch(Duration::ZERO, 1024).job.unwrap();
        assert_eq!(third.class, Priority::Maintenance);
    }

    #[test]
    fn maintenance_waits_for_tenant_idle_and_blocks_foreground() {
        let store = test_store();
        let t: Arc<str> = Arc::from("acme");
        let mut sched = sched_with(&[&t]);
        // A running backup holds maintenance back...
        sched.enqueue(job(&store, &t, Priority::Backup, 1));
        let backup = sched.dispatch(Duration::ZERO, 1024).job.unwrap();
        sched.enqueue(job(&store, &t, Priority::Maintenance, 1));
        assert!(sched.dispatch(Duration::ZERO, 1024).job.is_none());
        sched.complete(&t, backup.class, backup.cost);
        // ...then maintenance runs, and now *foreground* waits for it.
        let maint = sched.dispatch(Duration::ZERO, 1024).job.unwrap();
        assert_eq!(maint.class, Priority::Maintenance);
        sched.enqueue(job(&store, &t, Priority::Restore, 1));
        assert!(sched.dispatch(Duration::ZERO, 1024).job.is_none());
        sched.complete(&t, maint.class, maint.cost);
        assert!(sched.dispatch(Duration::ZERO, 1024).job.is_some());
    }

    #[test]
    fn byte_budget_gates_dispatch_but_never_deadlocks_oversize() {
        let store = test_store();
        let t: Arc<str> = Arc::from("acme");
        let mut sched = Scheduler::new();
        let policy = TenantPolicy::default().with_max_inflight_bytes(1000);
        sched.entry(&t, &policy, Duration::ZERO);
        // An oversize request dispatches while the tenant is idle.
        sched.enqueue(job(&store, &t, Priority::Backup, 5000));
        let big = sched.dispatch(Duration::ZERO, 10_000).job.unwrap();
        // Budget exhausted: the next request waits...
        sched.enqueue(job(&store, &t, Priority::Backup, 10));
        assert!(sched.dispatch(Duration::ZERO, 10_000).job.is_none());
        // ...until the big one completes.
        sched.complete(&t, big.class, big.cost);
        assert!(sched.dispatch(Duration::ZERO, 10_000).job.is_some());
    }

    #[test]
    fn drr_shares_by_weight() {
        let store = test_store();
        let heavy: Arc<str> = Arc::from("heavy");
        let light: Arc<str> = Arc::from("light");
        let mut sched = Scheduler::new();
        sched.entry(
            &heavy,
            &TenantPolicy::default().with_weight(2),
            Duration::ZERO,
        );
        sched.entry(
            &light,
            &TenantPolicy::default().with_weight(1),
            Duration::ZERO,
        );
        for _ in 0..30 {
            sched.enqueue(job(&store, &heavy, Priority::Backup, 100));
            sched.enqueue(job(&store, &light, Priority::Backup, 100));
        }
        // Dispatch (and immediately complete) 30 requests; with quantum 100
        // and weights 2:1 the service ratio converges to 2:1.
        let mut served = HashMap::new();
        for _ in 0..30 {
            let job = sched.dispatch(Duration::ZERO, 100).job.unwrap();
            *served.entry(job.tenant.clone()).or_insert(0usize) += 1;
            sched.complete(&job.tenant, job.class, job.cost);
        }
        let h = served[&heavy];
        let l = served[&light];
        assert_eq!(h + l, 30);
        assert!((18..=22).contains(&h), "heavy {h} vs light {l}: want ~2:1");
    }

    #[test]
    fn expired_heads_are_shed_not_served() {
        let store = test_store();
        let t: Arc<str> = Arc::from("acme");
        let mut sched = sched_with(&[&t]);
        let mut doomed = job(&store, &t, Priority::Backup, 1);
        doomed.deadline = Some(Duration::from_secs(1));
        sched.enqueue(doomed);
        sched.enqueue(job(&store, &t, Priority::Backup, 1));
        let d = sched.dispatch(Duration::from_secs(2), 1024);
        assert_eq!(d.expired.len(), 1);
        assert!(d.job.is_some());
        assert_eq!(sched.queued_total, 0);
    }

    #[test]
    fn sweep_expired_reaches_non_heads() {
        let store = test_store();
        let t: Arc<str> = Arc::from("acme");
        let mut sched = sched_with(&[&t]);
        sched.enqueue(job(&store, &t, Priority::Backup, 1));
        let mut doomed = job(&store, &t, Priority::Backup, 1);
        doomed.deadline = Some(Duration::from_secs(1));
        sched.enqueue(doomed);
        let expired = sched.sweep_expired(Duration::from_secs(5));
        assert_eq!(expired.len(), 1);
        assert_eq!(sched.queued_total, 1);
        // The surviving head still dispatches.
        assert!(sched.dispatch(Duration::from_secs(5), 1024).job.is_some());
    }
}
