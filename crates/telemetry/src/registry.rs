//! The metric registry and component scopes.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::metric::{Counter, Gauge, Histogram};
use crate::snapshot::TelemetrySnapshot;
use crate::span::Span;

#[derive(Clone, Debug)]
enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A shared, concurrency-safe collection of named metrics.
///
/// The registry itself is only locked during registration (get-or-create
/// of a named instrument) and snapshotting; the returned handles update
/// atomics directly, so steady-state recording is lock-free.
///
/// Cloning a `Registry` yields another handle to the same underlying
/// metric set.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    entries: Arc<RwLock<BTreeMap<String, Entry>>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter registered under `name`.
    ///
    /// If `name` is already registered as a different metric kind, a
    /// *detached* counter is returned instead: recording still works
    /// (the caller keeps a usable handle) but the values do not appear
    /// in snapshots. Telemetry never panics on a naming collision.
    pub fn counter(&self, name: &str) -> Counter {
        {
            let entries = self.entries.read().unwrap();
            match entries.get(name) {
                Some(Entry::Counter(c)) => return c.clone(),
                Some(_) => return Counter::detached(),
                None => {}
            }
        }
        let mut entries = self.entries.write().unwrap();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Counter(Counter::detached()))
        {
            Entry::Counter(c) => c.clone(),
            _ => Counter::detached(),
        }
    }

    /// Get or create the gauge registered under `name` (see
    /// [`Registry::counter`] for the collision policy).
    pub fn gauge(&self, name: &str) -> Gauge {
        {
            let entries = self.entries.read().unwrap();
            match entries.get(name) {
                Some(Entry::Gauge(g)) => return g.clone(),
                Some(_) => return Gauge::detached(),
                None => {}
            }
        }
        let mut entries = self.entries.write().unwrap();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Gauge(Gauge::detached()))
        {
            Entry::Gauge(g) => g.clone(),
            _ => Gauge::detached(),
        }
    }

    /// Get or create the histogram registered under `name` (see
    /// [`Registry::counter`] for the collision policy).
    pub fn histogram(&self, name: &str) -> Histogram {
        {
            let entries = self.entries.read().unwrap();
            match entries.get(name) {
                Some(Entry::Histogram(h)) => return h.clone(),
                Some(_) => return Histogram::detached(),
                None => {}
            }
        }
        let mut entries = self.entries.write().unwrap();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Histogram(Histogram::detached()))
        {
            Entry::Histogram(h) => h.clone(),
            _ => Histogram::detached(),
        }
    }

    /// Whether any metric is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.read().unwrap().contains_key(name)
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let entries = self.entries.read().unwrap();
        let mut snap = TelemetrySnapshot::default();
        for (name, entry) in entries.iter() {
            match entry {
                Entry::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Entry::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Entry::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// A view of the registry under a dotted name prefix; an empty
    /// prefix scopes to the registry root.
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }
}

/// A component-scoped view of a [`Registry`].
///
/// All metric names created through a scope are prefixed with the
/// scope's dotted path (`oss`, `retry`, `lnode.3`, `gnode`, …), which
/// keeps naming consistent across components and lets snapshots be
/// filtered per component.
#[derive(Clone, Debug)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Child scope `"<prefix>.<name>"`.
    pub fn child(&self, name: &str) -> Scope {
        Scope {
            registry: self.registry.clone(),
            prefix: self.full_name(name),
        }
    }

    /// The fully-qualified metric name for `name` under this scope.
    pub fn full_name(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        }
    }

    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&self.full_name(name))
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&self.full_name(name))
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(&self.full_name(name))
    }

    /// Start a span timer for a pipeline phase. The elapsed wall time
    /// is recorded (in nanoseconds) into the histogram
    /// `"<prefix>.span.<phase>"` when the span is dropped or
    /// [`Span::finish`]ed.
    pub fn span(&self, phase: &str) -> Span {
        Span::start(self.clone(), phase.to_string())
    }

    /// Record an externally-measured phase duration into the same
    /// histogram a [`Scope::span`] of that phase would use. This is
    /// how accumulated per-job timings (e.g. `BackupStats`' scattered
    /// chunking/fingerprint timers) are folded into the span taxonomy.
    pub fn record_span(&self, phase: &str, elapsed: Duration) {
        self.span_histogram(phase).record_duration(elapsed);
    }

    /// The histogram backing spans of `phase` under this scope.
    pub fn span_histogram(&self, phase: &str) -> crate::Histogram {
        self.registry
            .histogram(&format!("{}.{}", self.full_name("span"), phase))
    }
}
