//! Runs one workload and turns what it observed into metrics.
//!
//! Every workload has the same shape: **set-up** (stand-in self-tests, build
//! the deployment, generate v0, an untimed warm-up backup+restore in a
//! throwaway store), a **backup phase** (each version followed by its G-node
//! cycle; on `mixed-rw` a second thread restores single files meanwhile), a
//! **restore phase** on the quiet store (latest and oldest version, every
//! pass byte-compared outside the timed call), a **retention sweep** with one
//! more verified restore, then space accounting and a checksum sweep.
//!
//! The backup phase is a fixed amount of work and the number of restore
//! passes a function of `--seconds` alone, so a run is the same sequence of
//! operations every time and every count repeats from run to run.
//! Only public API is called, at `SlimConfig::default()`. Layers are priced
//! from outside: timing the calls, reading the stats structs they return, and
//! (traced runs) interposing [`TracedStore`] in the object-store stack.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use slim_frontend::{Frontend, FrontendBuilder, Request};
use slim_gnode::GNodeCycleStats;
use slim_lnode::{BackupStats, RestoreStats};
use slim_oss::{HedgePolicy, HedgedStore, ObjectStore, Oss};
use slim_telemetry::{Registry, TelemetrySnapshot};
use slim_types::{FileId, Result as SlimResult, SlimConfig, VersionId};
use slimstore::{
    RetentionReport, SlimStore, SlimStoreBuilder, SpaceReport, TenantStoreManager,
    VersionBackupReport,
};

use crate::gen::{Dataset, DatasetSpec, Rng};
use crate::kernels;
use crate::metrics::{
    median, percentile, ratio, rss_mib, Metric, MetricSet, END_TO_END, MIB, PER_LAYER,
};
use crate::trace::{self, covered_ns, Span, Tracer};
use crate::traced_store::TracedStore;
use crate::workloads::{Driver, WorkloadSpec, RUN_SECONDS};

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Measured seconds the run aims for: the backup phase is fixed, the
    /// number of restore passes grows with it.
    pub seconds: f64,
    /// Whether to record spans and report the per-layer metrics instead of
    /// the end-to-end ones.
    pub trace: bool,
    /// Divides every file's block count: 1 for real runs, 32 in the tests.
    pub scale_div: usize,
    /// Where `<workload>.trace.json` goes; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
    /// Process start, the origin of `setup_s`.
    pub started: Instant,
    /// This benchmark's executable. A traced run starts it once more to
    /// measure the untraced `backup_mbps` that `trace.overhead_ratio` divides
    /// by: throughput drifts with the age of a process (allocator state), so
    /// only a fresh process is a fair reference for a fresh process. `None`
    /// (the tests) measures the reference in this process instead.
    pub reference_exe: Option<PathBuf>,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every operation succeeded, every restore was byte-identical and the
    /// checksum sweep was clean.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end catalogue (untraced) or the per-layer one (traced).
    pub metrics: Vec<Metric>,
    /// One line per failed operation.
    pub errors: Vec<String>,
}

type Files = Vec<(String, Vec<u8>)>;

const TENANT: &str = "bench";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const WARMUP_BYTES: usize = 16 * 1024 * 1024;
/// Recorded quiet restore passes every run has, however short.
const MIN_LATEST: usize = 3;
const MIN_OLDEST: usize = 2;
/// Bytes of v1 the layer kernels run over.
const SAMPLE_BYTES: usize = 64 * 1024 * 1024;

/// The door requests go through. Dropping a `Frontend` drains it and joins its workers.
enum Target {
    Direct {
        store: Arc<SlimStore>,
        jobs: usize,
    },
    Frontend {
        frontend: Frontend,
        store: Arc<SlimStore>,
        jobs: usize,
    },
}

impl Target {
    fn store(&self) -> &Arc<SlimStore> {
        match self {
            Target::Direct { store, .. } | Target::Frontend { store, .. } => store,
        }
    }

    fn backup(&self, files: Vec<(FileId, Vec<u8>)>) -> SlimResult<VersionBackupReport> {
        match self {
            Target::Direct { store, jobs } => store.backup_version_with_jobs(files, *jobs),
            Target::Frontend { frontend, jobs, .. } => frontend
                .submit(TENANT, Request::Backup { files, jobs: *jobs })?
                .wait()?
                .into_backup(),
        }
    }

    fn gnode(&self, version: VersionId) -> SlimResult<GNodeCycleStats> {
        match self {
            Target::Direct { store, .. } => store.run_gnode_cycle(version),
            Target::Frontend { frontend, .. } => frontend
                .submit(TENANT, Request::GNodeCycle { version })?
                .wait()?
                .into_maintenance(),
        }
    }

    fn restore_version(
        &self,
        version: VersionId,
    ) -> SlimResult<Vec<(FileId, Vec<u8>, RestoreStats)>> {
        match self {
            Target::Direct { store, .. } => store.restore_version(version, 1),
            Target::Frontend { frontend, .. } => frontend
                .submit(TENANT, Request::RestoreVersion { version, jobs: 1 })?
                .wait()?
                .into_version(),
        }
    }

    fn restore_file(
        &self,
        file: &FileId,
        version: VersionId,
    ) -> SlimResult<(Vec<u8>, RestoreStats)> {
        match self {
            Target::Direct { store, .. } => store.restore_file(file, version),
            Target::Frontend { frontend, .. } => frontend
                .submit(
                    TENANT,
                    Request::RestoreFile {
                        file: file.clone(),
                        version,
                    },
                )?
                .wait()?
                .into_file(),
        }
    }

    fn retain(&self, keep: usize) -> SlimResult<RetentionReport> {
        match self {
            Target::Direct { store, .. } => store.retain_last(keep),
            Target::Frontend { frontend, .. } => frontend
                .submit(TENANT, Request::RetainLast { keep })?
                .wait()?
                .into_retention(),
        }
    }
}

/// A built deployment plus the handles a traced run reads afterwards.
struct Deployment {
    target: Target,
    /// Registry the traced stack's `Oss` / `HedgedStore` record into (an
    /// attached store's counters are not in the deployment's own registry).
    oss_registry: Option<Registry>,
    /// The outermost attached store of a traced direct deployment, to time a reopen over.
    attached: Option<Arc<dyn ObjectStore>>,
}

/// Build the deployment of `spec`. Untraced, this is exactly what the
/// builders assemble internally for the network model. Traced, the same
/// stack is assembled here with a [`TracedStore`] on either side of the
/// hedging layer and attached through `with_object_store`, so `build()`
/// still adds the redundancy (and retry) wrappers itself.
fn deploy(spec: &WorkloadSpec, tracer: Option<&Arc<Tracer>>) -> SlimResult<Deployment> {
    let config = SlimConfig::default();
    let model = spec.net.model();
    match spec.driver {
        Driver::Direct { jobs } => {
            let (builder, oss_registry, attached) = match tracer {
                None => (
                    SlimStoreBuilder::in_memory().with_network(model),
                    None,
                    None,
                ),
                Some(tracer) => {
                    let registry = Registry::new();
                    let oss = Oss::with_telemetry(model, &registry.scope("oss"));
                    oss.set_endpoints(config.oss_endpoints);
                    let mut stack: Arc<dyn ObjectStore> =
                        Arc::new(TracedStore::new(Arc::new(oss), tracer.clone(), "oss.inner"));
                    if config.hedged_reads && config.oss_endpoints > 1 {
                        stack = Arc::new(HedgedStore::with_telemetry(
                            stack,
                            HedgePolicy::for_endpoints(config.oss_endpoints),
                            &registry.scope("oss"),
                        ));
                    }
                    stack = Arc::new(TracedStore::new(stack, tracer.clone(), "oss"));
                    let builder = SlimStoreBuilder::in_memory().with_object_store(stack.clone());
                    (builder, Some(registry), Some(stack))
                }
            };
            Ok(Deployment {
                target: Target::Direct {
                    store: Arc::new(builder.build()?),
                    jobs,
                },
                oss_registry,
                attached,
            })
        }
        Driver::Frontend { l_nodes, jobs } => {
            let (manager, oss_registry) = match tracer {
                None => (TenantStoreManager::in_memory(model), None),
                Some(tracer) => {
                    let registry = Registry::new();
                    let oss = Oss::with_telemetry(model, &registry.scope("oss"));
                    let traced = TracedStore::new(Arc::new(oss), tracer.clone(), "oss");
                    (TenantStoreManager::new(Arc::new(traced)), Some(registry))
                }
            };
            let manager = Arc::new(manager.with_l_nodes(l_nodes));
            let store = manager.get_or_create(TENANT)?;
            let frontend = FrontendBuilder::new(manager).start()?;
            Ok(Deployment {
                target: Target::Frontend {
                    frontend,
                    store,
                    jobs,
                },
                oss_registry,
                attached: None,
            })
        }
    }
}

/// Counts operations, collects failures, and opens a span per operation.
struct Harness {
    tracer: Option<Arc<Tracer>>,
    attempted: AtomicU64,
    /// One line per failed operation or mismatch; its length is the `failed` count.
    errors: Mutex<Vec<String>>,
    /// Resident set of the process, sampled at the end of every operation.
    rss_mib: Mutex<Vec<f64>>,
    /// While a phase root is open, operations nest below it instead of
    /// becoming roots themselves (they overlap, so none can be *the* root).
    in_phase: AtomicBool,
}

impl Harness {
    fn fail(&self, what: String) {
        self.errors
            .lock()
            .expect("no thread panics while holding the error list")
            .push(what);
    }

    /// Run one operation: count it, time it, span it. `None` means it failed
    /// (already recorded).
    fn op<T>(
        &self,
        layer: &'static str,
        name: String,
        call: impl FnOnce() -> SlimResult<T>,
    ) -> (Option<T>, f64) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let span = self.tracer.as_ref().map(|t| {
            if self.in_phase.load(Ordering::SeqCst) {
                t.child(layer, name.clone())
            } else {
                t.root(layer, name.clone())
            }
        });
        let start = Instant::now();
        let out = call();
        let secs = start.elapsed().as_secs_f64();
        if let (Some(t), Some(span)) = (&self.tracer, span) {
            t.finish(span, 0, 1, out.is_ok());
        }
        self.rss_mib
            .lock()
            .expect("no thread panics while holding the samples")
            .push(rss_mib());
        match out {
            Ok(v) => (Some(v), secs),
            Err(e) => {
                self.fail(format!("{name}: {e}"));
                (None, secs)
            }
        }
    }

    /// Byte-compare restored files with what was backed up; a mismatch is a failed operation.
    fn verify(&self, what: &str, expected: &Files, got: &[(FileId, Vec<u8>, RestoreStats)]) {
        let ok = expected.len() == got.len()
            && expected
                .iter()
                .zip(got)
                .all(|((name, bytes), (file, restored, _))| {
                    name == file.as_str() && bytes == restored
                });
        if !ok {
            self.fail(format!("{what}: restored bytes differ from the input"));
        }
    }
}

/// Timings and merged stats of a series of restores.
#[derive(Default)]
struct RestoreSeries {
    secs: Vec<f64>,
    bytes: Vec<u64>,
    stats: RestoreStats,
}

impl RestoreSeries {
    fn push(&mut self, secs: f64, stats: impl IntoIterator<Item = RestoreStats>) {
        let mut bytes = 0;
        for s in stats {
            bytes += s.restored_bytes;
            self.stats.merge(&s);
        }
        self.secs.push(secs);
        self.bytes.push(bytes);
    }

    fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    fn rates_mbps(&self) -> Vec<f64> {
        self.secs
            .iter()
            .zip(&self.bytes)
            .map(|(s, b)| ratio(*b as f64 / MIB, *s))
            .collect()
    }

    /// Median over the series of MiB/s.
    fn median_mbps(&self) -> f64 {
        median(&self.rates_mbps())
    }

    /// MiB/s of the fastest pass. Interference on a shared machine only ever
    /// slows a pass down (passes of one run differed by up to a factor of
    /// two here), so with the handful of passes a run has room for, the
    /// fastest one repeats from run to run where the median does not.
    fn best_mbps(&self) -> f64 {
        self.rates_mbps().into_iter().fold(0.0, f64::max)
    }
}

fn to_input(files: &Files) -> Vec<(FileId, Vec<u8>)> {
    files
        .iter()
        .map(|(name, bytes)| (FileId::new(name.clone()), bytes.clone()))
        .collect()
}

fn scaled(spec: &DatasetSpec, scale_div: usize) -> DatasetSpec {
    DatasetSpec {
        blocks_per_file: (spec.blocks_per_file / scale_div.max(1)).max(4),
        ..spec.clone()
    }
}

/// One set-up: self-tests, v0, the deployment, and a warm-up backup+restore
/// in a throwaway store so lazy initialisation is paid before timing.
fn set_up(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Dataset, Files, Deployment), String> {
    crate::selftest::run()?;
    let dataset = Dataset::new(scaled(&spec.dataset, cfg.scale_div), cfg.seed);
    let v0 = dataset.materialize();
    let deployment = deploy(spec, tracer).map_err(|e| format!("building the deployment: {e}"))?;

    let mut warm = vec![0u8; WARMUP_BYTES / cfg.scale_div.max(1)];
    Rng::new(cfg.seed ^ 0x3A11).fill(&mut warm);
    let throwaway = SlimStoreBuilder::in_memory()
        .build()
        .map_err(|e| format!("warm-up store: {e}"))?;
    let file = FileId::new("warmup/file");
    let restored = throwaway
        .backup_version(vec![(file.clone(), warm.clone())])
        .and_then(|report| throwaway.restore_file(&file, report.version))
        .map_err(|e| format!("warm-up: {e}"))?;
    if restored.0 != warm {
        return Err("warm-up restore differs from its input".into());
    }
    Ok((dataset, v0, deployment))
}

/// Everything the phases observed, before it is turned into metrics.
#[derive(Default)]
struct Observed {
    logical_backed_up: u64,
    backup_secs: Vec<f64>,
    gnode_secs: Vec<f64>,
    backup_stats: BackupStats,
    cycles: Vec<GNodeCycleStats>,
    under_load: RestoreSeries,
    latest: RestoreSeries,
    oldest: RestoreSeries,
    sample: Vec<u8>,
}

/// The quiet restore passes of a run, in order, as `(latest version?, recorded?)`.
///
/// The number of passes is a function of `--seconds` alone, not of a clock
/// read during the run, and all passes of the latest version come before
/// those of the oldest: the stack adapts as it goes (on `db-incr-wan` a pass
/// of the latest version takes a quarter less once half a dozen restores
/// have run, and when exactly it gets there varies), so only an identical
/// sequence of operations makes runs comparable. First one unrecorded pass of
/// each kind: the first restores of a process pay allocator and cache warm-up
/// the later ones do not. The quotas are sized to fill the run length on the
/// machine this was written on.
fn pass_schedule(spec: &WorkloadSpec, seconds: f64) -> Vec<(bool, bool)> {
    let quota = |at_default: usize, min: usize| {
        ((at_default as f64 * seconds / RUN_SECONDS).round() as usize).max(min)
    };
    let mut schedule = vec![(true, false), (false, false)];
    schedule.extend(vec![(true, true); quota(spec.restore_passes.0, MIN_LATEST)]);
    schedule.extend(vec![
        (false, true);
        quota(spec.restore_passes.1, MIN_OLDEST)
    ]);
    schedule
}

/// The closed-loop reader of `mixed-rw`: restore one seeded-random file of
/// the latest committed version, verify it, repeat until the writer is done.
fn reader_loop(
    h: &Harness,
    target: &Target,
    committed: &Mutex<Option<(VersionId, Arc<Files>)>>,
    done: &AtomicBool,
    seed: u64,
) -> RestoreSeries {
    let mut rng = Rng::new(seed ^ 0x4EAD);
    let mut series = RestoreSeries::default();
    while !done.load(Ordering::SeqCst) {
        let snapshot = committed
            .lock()
            .expect("writer does not panic holding this")
            .clone();
        let Some((version, files)) = snapshot else {
            std::thread::yield_now();
            continue;
        };
        let (name, expected) = &files[rng.below(files.len())];
        let file = FileId::new(name.clone());
        let (out, secs) = h.op(
            "lnode.restore",
            format!("restore_file {name}@{}", version.0),
            || target.restore_file(&file, version),
        );
        if let Some((bytes, stats)) = out {
            if &bytes != expected {
                h.fail(format!(
                    "restore_file {name}@{}: restored bytes differ",
                    version.0
                ));
            }
            series.push(secs, [stats]);
        }
    }
    series
}

/// Run `spec` once.
pub fn run(spec: &WorkloadSpec, cfg: &RunConfig) -> Result<RunOutput, String> {
    let tracer = cfg.trace.then(|| Arc::new(Tracer::default()));
    let h = Harness {
        tracer: tracer.clone(),
        attempted: AtomicU64::new(0),
        errors: Mutex::new(Vec::new()),
        rss_mib: Mutex::new(Vec::new()),
        in_phase: AtomicBool::new(false),
    };

    // ---- set-up, several times; the last one is the one that gets used.
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for repeat in 0..SETUP_REPEATS {
        let start = if repeat == 0 {
            cfg.started
        } else {
            Instant::now()
        };
        drop(built.take());
        built = Some(set_up(spec, cfg, tracer.as_ref())?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let (mut dataset, v0, deployment) = built.expect("SETUP_REPEATS >= 1");
    let target = &deployment.target;
    let store = target.store().clone();

    // A traced run prices its own overhead against an untraced backup phase
    // of the same inputs, run first so both see a fresh process.
    let untraced_backup_mbps = match cfg.trace {
        true => Some(untraced_reference(spec, cfg)?),
        false => None,
    };

    let mut obs = Observed::default();
    let mut versions: Vec<VersionId> = Vec::new();
    let mut current = Arc::new(v0);

    // ---- backup phase
    let committed: Mutex<Option<(VersionId, Arc<Files>)>> = Mutex::new(None);
    let writer_done = AtomicBool::new(false);
    let concurrent_reader = matches!(spec.driver, Driver::Frontend { .. });
    let phase = tracer.as_ref().filter(|_| concurrent_reader).map(|t| {
        let root = t.root("harness.phase", "load");
        h.in_phase.store(true, Ordering::SeqCst);
        root
    });
    std::thread::scope(|s| {
        let reader = concurrent_reader
            .then(|| s.spawn(|| reader_loop(&h, target, &committed, &writer_done, cfg.seed)));
        for v in 0..spec.versions {
            if v > 0 {
                // Generated before the timed call, like a client that has its data ready.
                dataset.advance();
                current = Arc::new(dataset.materialize());
            }
            if v == 1 && cfg.trace {
                for (_, bytes) in current.iter() {
                    let room =
                        (SAMPLE_BYTES / cfg.scale_div.max(1)).saturating_sub(obs.sample.len());
                    obs.sample
                        .extend_from_slice(&bytes[..bytes.len().min(room)]);
                }
            }
            let input = to_input(&current);
            let logical: u64 = input.iter().map(|(_, b)| b.len() as u64).sum();
            let (report, secs) = h.op("lnode.backup", format!("backup v{v}"), || {
                target.backup(input)
            });
            let Some(report) = report else { break };
            obs.logical_backed_up += logical;
            obs.backup_secs.push(secs);
            obs.backup_stats.merge(&report.stats);
            versions.push(report.version);
            *committed
                .lock()
                .expect("reader does not panic holding this") =
                Some((report.version, current.clone()));
            let (cycle, secs) = h.op("gnode.cycle", format!("gnode cycle v{v}"), || {
                target.gnode(report.version)
            });
            let Some(cycle) = cycle else { break };
            obs.gnode_secs.push(secs);
            obs.cycles.push(cycle);
        }
        writer_done.store(true, Ordering::SeqCst);
        if let Some(reader) = reader {
            obs.under_load = reader.join().expect("reader thread does not panic");
        }
    });
    if let (Some(t), Some(root)) = (&tracer, phase) {
        h.in_phase.store(false, Ordering::SeqCst);
        t.finish(root, 0, 0, true);
    }
    if versions.len() < spec.versions {
        return Ok(finish(&h, Vec::new()));
    }

    // ---- restore phase on the quiet store: latest and oldest version.
    let (latest_v, oldest_v) = (versions[versions.len() - 1], versions[0]);
    let v0_expected = dataset.materialize_v0();
    let mut restored_bytes = obs.under_load.total_bytes();
    for (pass, (latest, record)) in pass_schedule(spec, cfg.seconds).into_iter().enumerate() {
        let (version, expected, series, label) = if latest {
            (latest_v, &*current, &mut obs.latest, "latest")
        } else {
            (oldest_v, &v0_expected, &mut obs.oldest, "oldest")
        };
        let name = format!("restore {label} v{} pass {pass}", version.0);
        let layer = if record {
            "lnode.restore"
        } else {
            "lnode.restore.warmup"
        };
        let (out, secs) = h.op(layer, name.clone(), || target.restore_version(version));
        let Some(out) = out else {
            return Ok(finish(&h, Vec::new()));
        };
        h.verify(&name, expected, &out);
        restored_bytes += out
            .iter()
            .map(|(_, bytes, _)| bytes.len() as u64)
            .sum::<u64>();
        if record {
            series.push(secs, out.into_iter().map(|(_, _, stats)| stats));
        }
    }
    drop(v0_expected);
    // Requests and bytes of the backup and restore phases, before space
    // accounting and the retention sweep add theirs.
    let traffic = store.telemetry_snapshot();

    // ---- space before retention, retention, one more verified restore, checksum sweep.
    let (space, _) = h.op("slimstore.space", "space_report".into(), || {
        store.space_report()
    });
    let keep = spec.versions.saturating_sub(2).max(1);
    let (retention, retain_secs) = h.op("gnode.retain", format!("retain_last {keep}"), || {
        target.retain(keep)
    });
    let name = format!("restore latest v{} after retention", latest_v.0);
    let (out, _) = h.op("lnode.restore.after_retain", name.clone(), || {
        target.restore_version(latest_v)
    });
    if let Some(out) = &out {
        h.verify(&name, &current, out);
    }
    let (integrity, _) = h.op("gnode.verify", "verify_checksums".into(), || {
        store.verify_checksums()
    });
    if integrity
        .as_ref()
        .is_some_and(|r| r.containers_quarantined + r.objects_quarantined > 0)
    {
        h.fail(format!("verify_checksums is not clean: {integrity:?}"));
    }
    let (Some(space), Some(retention)) = (space, retention) else {
        return Ok(finish(&h, Vec::new()));
    };

    let mut set = MetricSet::default();
    let metrics = if let Some(tracer) = &tracer {
        let spans = tracer.spans();
        per_layer(
            &mut set,
            cfg,
            &obs,
            &deployment,
            &LayerInputs {
                spans: &spans,
                traffic: &traffic,
                space: &space,
                retention: &retention,
                retain_secs,
                restored_bytes,
                untraced_backup_mbps: untraced_backup_mbps.expect("measured above for traced runs"),
                latest_version: latest_v,
                files: &current,
            },
        )?;
        if let Some(dir) = &cfg.out_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let path = dir.join(format!("{}.trace.json", spec.name));
            std::fs::write(&path, trace::to_json(&spans))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        set.into_catalogue(PER_LAYER)
    } else {
        let requests = [
            "oss.get_requests",
            "oss.put_requests",
            "oss.delete_requests",
        ]
        .iter()
        .map(|name| traffic.counter(name))
        .sum::<u64>();
        let gib = (obs.logical_backed_up + restored_bytes) as f64 / (1024.0 * MIB);
        set.set("setup_s", median(&setup_secs));
        set.set("backup_mbps", backup_mbps(&obs));
        set.set(
            "restore_latest_mbps",
            if concurrent_reader && !obs.under_load.secs.is_empty() {
                obs.under_load.median_mbps()
            } else {
                obs.latest.best_mbps()
            },
        );
        set.set("restore_oldest_mbps", obs.oldest.best_mbps());
        set.set("gnode_cycle_s", obs.gnode_secs.iter().sum());
        set.set(
            "stored_per_logical",
            ratio(space.total() as f64, obs.logical_backed_up as f64),
        );
        set.set(
            "restore_containers_per_100mb",
            obs.latest.stats.containers_per_100mb(),
        );
        set.set("oss_requests_per_gib", ratio(requests as f64, gib));
        set.set(
            "rss_mib",
            median(
                &h.rss_mib
                    .lock()
                    .expect("no thread panics while holding the samples"),
            ),
        );
        set.into_catalogue(END_TO_END)
    };

    Ok(finish(&h, metrics))
}

/// The run's result. A run whose phases could not complete passes no metrics
/// (and has recorded the operation that stopped it).
fn finish(h: &Harness, metrics: Vec<Metric>) -> RunOutput {
    let errors = h
        .errors
        .lock()
        .expect("no thread panics while holding the error list")
        .clone();
    RunOutput {
        correct: errors.is_empty() && !metrics.is_empty(),
        attempted: h.attempted.load(Ordering::Relaxed),
        failed: errors.len() as u64,
        metrics,
        errors,
    }
}

fn backup_mbps(obs: &Observed) -> f64 {
    ratio(
        obs.logical_backed_up as f64 / MIB,
        obs.backup_secs.iter().sum(),
    )
}

/// The untraced `backup_mbps` a traced run compares itself with.
fn untraced_reference(spec: &WorkloadSpec, cfg: &RunConfig) -> Result<f64, String> {
    let Some(exe) = &cfg.reference_exe else {
        return reference_backup_mbps(spec, cfg);
    };
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            spec.name,
            "--seed",
            &cfg.seed.to_string(),
            "--reference-backup",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the reference run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the reference run exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("the reference run printed no number: {e}"))
}

/// `backup_mbps` of an untraced deployment over the same inputs (backups and
/// G-node cycles only), the denominator of `trace.overhead_ratio`.
pub fn reference_backup_mbps(spec: &WorkloadSpec, cfg: &RunConfig) -> Result<f64, String> {
    let deployment = deploy(spec, None).map_err(|e| format!("reference deployment: {e}"))?;
    let mut dataset = Dataset::new(scaled(&spec.dataset, cfg.scale_div), cfg.seed);
    let (mut bytes, mut secs) = (0u64, 0f64);
    for v in 0..spec.versions {
        if v > 0 {
            dataset.advance();
        }
        let input = to_input(&dataset.materialize());
        bytes += input.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        let start = Instant::now();
        let report = deployment
            .target
            .backup(input)
            .map_err(|e| format!("reference backup v{v}: {e}"))?;
        secs += start.elapsed().as_secs_f64();
        deployment
            .target
            .gnode(report.version)
            .map_err(|e| format!("reference gnode cycle v{v}: {e}"))?;
    }
    Ok(ratio(bytes as f64 / MIB, secs))
}

/// What [`per_layer`] needs besides the observations.
struct LayerInputs<'a> {
    spans: &'a [Span],
    /// `telemetry_snapshot()` at the end of the restore phase.
    traffic: &'a TelemetrySnapshot,
    space: &'a SpaceReport,
    retention: &'a RetentionReport,
    retain_secs: f64,
    restored_bytes: u64,
    untraced_backup_mbps: f64,
    latest_version: VersionId,
    files: &'a Files,
}

/// Sum of the durations of `ops` and of the part of them `requests` cover, in seconds.
fn busy(ops: &[&Span], requests: &[(u64, u64)]) -> (f64, f64) {
    let total: u64 = ops.iter().map(|s| s.duration_ns()).sum();
    let covered: u64 = ops
        .iter()
        .map(|s| covered_ns(s.start_ns, s.end_ns, requests.iter().copied()))
        .sum();
    (total as f64 / 1e9, covered as f64 / 1e9)
}

fn per_layer(
    set: &mut MetricSet,
    cfg: &RunConfig,
    obs: &Observed,
    deployment: &Deployment,
    x: &LayerInputs<'_>,
) -> Result<(), String> {
    let store = deployment.target.store();
    let logical = obs.logical_backed_up as f64;
    let secs = |d: std::time::Duration| d.as_secs_f64();

    // ---- spans: object-store requests of the measured operations.
    let measured_layers = [
        "lnode.backup",
        "gnode.cycle",
        "lnode.restore",
        "gnode.retain",
        "harness.phase",
    ];
    let ops_of =
        |layer: &str| -> Vec<&Span> { x.spans.iter().filter(|s| s.layer == layer).collect() };
    let measured_roots: std::collections::HashSet<u64> = x
        .spans
        .iter()
        .filter(|s| s.parent == 0 && measured_layers.contains(&s.layer))
        .map(|s| s.id)
        .collect();
    let requests_of = |layer: &str| -> Vec<&Span> {
        x.spans
            .iter()
            .filter(|s| s.layer == layer && measured_roots.contains(&s.op_id))
            .collect()
    };
    let outer = requests_of("oss");
    let inner = requests_of("oss.inner");
    let intervals: Vec<(u64, u64)> = outer.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    let (backup_s, backup_busy) = busy(&ops_of("lnode.backup"), &intervals);
    let (restore_s, restore_busy) = busy(&ops_of("lnode.restore"), &intervals);
    let (gnode_s, gnode_busy) = busy(&ops_of("gnode.cycle"), &intervals);
    set.set("oss.backup.busy_share", ratio(backup_busy, backup_s));
    set.set("oss.restore.busy_share", ratio(restore_busy, restore_s));
    set.set("oss.gnode.busy_share", ratio(gnode_busy, gnode_s));
    set.set("lnode.backup.self_s", backup_s - backup_busy);
    set.set("lnode.restore.self_s", restore_s - restore_busy);
    set.set("gnode.self_s", gnode_s - gnode_busy);
    let request_ms: Vec<f64> = outer.iter().map(|s| s.duration_ns() as f64 / 1e6).collect();
    set.set("oss.req_n", request_ms.len() as f64);
    set.set("oss.req_ms_p50", percentile(&request_ms, 50.0));
    set.set("oss.req_ms_p95", percentile(&request_ms, 95.0));
    // Time some request was inside the hedging layer and none inside the
    // store below it. Unions, not sums: a hedge or a batch puts several inner
    // requests under one outer one, and a losing hedge outlives its caller.
    let in_flight_s = |spans: &mut dyn Iterator<Item = &&Span>| {
        covered_ns(0, u64::MAX, spans.map(|s| (s.start_ns, s.end_ns))) as f64 / 1e9
    };
    set.set(
        "oss.hedged.self_s",
        if inner.is_empty() {
            0.0
        } else {
            in_flight_s(&mut outer.iter().chain(&inner)) - in_flight_s(&mut inner.iter())
        },
    );

    // ---- counters the stack keeps itself.
    set.set(
        "oss.put_requests",
        x.traffic.counter("oss.put_requests") as f64,
    );
    set.set(
        "oss.get_requests",
        x.traffic.counter("oss.get_requests") as f64,
    );
    set.set(
        "oss.delete_requests",
        x.traffic.counter("oss.delete_requests") as f64,
    );
    set.set(
        "oss.bytes_put_per_logical",
        ratio(x.traffic.counter("oss.bytes_written") as f64, logical),
    );
    set.set(
        "oss.bytes_get_per_restored",
        ratio(
            x.traffic.counter("oss.bytes_read") as f64,
            x.restored_bytes as f64,
        ),
    );
    let own = deployment
        .oss_registry
        .as_ref()
        .map(Registry::snapshot)
        .unwrap_or_default();
    set.set("oss.hedge.issued", own.counter("oss.hedge.issued") as f64);
    set.set("oss.hedge.won", own.counter("oss.hedge.won") as f64);
    set.set(
        "oss.batch.fanout_mean",
        own.histogram("oss.batch.fanout")
            .map_or(0.0, |h| ratio(h.sum as f64, h.count as f64)),
    );

    // ---- lnode: the stats structs backup and restore return.
    let b = &obs.backup_stats;
    set.set("lnode.backup.version_s_p50", median(&obs.backup_secs));
    set.set("lnode.backup.dedup_ratio", b.dedup_ratio());
    set.set(
        "lnode.backup.skip_hit_ratio",
        ratio(b.skip_hits as f64, (b.skip_hits + b.skip_misses) as f64),
    );
    set.set(
        "lnode.backup.super_hit_ratio",
        ratio(b.super_hits as f64, (b.super_hits + b.super_misses) as f64),
    );
    set.set(
        "lnode.backup.avg_chunk_bytes",
        ratio(b.logical_bytes as f64, b.chunks as f64),
    );
    set.set("lnode.backup.chunking_s", secs(b.chunking_time));
    set.set("lnode.backup.fingerprint_s", secs(b.fingerprint_time));
    set.set("lnode.backup.index_s", secs(b.index_time));
    set.set("lnode.backup.compress_s", secs(b.compress_time));
    set.set("lnode.backup.network_s", secs(b.network_time));
    set.set("lnode.backup.pipeline_stall_s", secs(b.pipeline_stall_time));
    set.set("lnode.backup.other_s", secs(b.other_time()));
    let r = &obs.latest.stats;
    set.set(
        "lnode.restore.cache_hit_ratio",
        ratio(r.cache_hits as f64, (r.cache_hits + r.cache_misses) as f64),
    );
    set.set(
        "lnode.restore.prefetch_hit_ratio",
        ratio(r.prefetch_hits as f64, r.containers_read as f64),
    );
    set.set(
        "lnode.restore.read_amp",
        ratio(r.oss_bytes_read as f64, r.restored_bytes as f64),
    );
    set.set(
        "lnode.restore.relocation_lookups",
        obs.oldest.stats.relocation_lookups as f64,
    );
    set.set(
        "lnode.restore.containers_per_100mb_oldest",
        obs.oldest.stats.containers_per_100mb(),
    );

    // ---- gnode: returned stats plus its own stage spans.
    set.set("gnode.cycle_s_p50", median(&obs.gnode_secs));
    set.set(
        "gnode.cycle_growth",
        ratio(
            *obs.gnode_secs.last().expect("at least one cycle"),
            obs.gnode_secs[0],
        ),
    );
    set.set("gnode.retain_s", x.retain_secs);
    for (metric, stage) in [
        ("gnode.stage.reverse_dedup_s", "reverse_dedup"),
        ("gnode.stage.scc_s", "scc"),
        ("gnode.stage.mark_s", "mark"),
        ("gnode.stage.repair_s", "repair"),
        ("gnode.stage.redundancy_s", "redundancy"),
    ] {
        set.set(
            metric,
            x.traffic
                .span("gnode", stage)
                .map_or(0.0, |h| h.sum as f64 / 1e9),
        );
    }
    let sum = |f: fn(&GNodeCycleStats) -> u64| obs.cycles.iter().map(f).sum::<u64>() as f64;
    let scanned = sum(|c| c.reverse.chunks_scanned);
    set.set("gnode.chunks_scanned", scanned);
    set.set(
        "gnode.bloom_skip_ratio",
        ratio(sum(|c| c.reverse.bloom_skips), scanned),
    );
    set.set(
        "gnode.duplicates_removed",
        sum(|c| c.reverse.duplicates_removed),
    );
    set.set(
        "gnode.containers_rewritten",
        sum(|c| c.reverse.containers_rewritten),
    );
    set.set(
        "gnode.bytes_moved_per_logical",
        ratio(sum(|c| c.scc.bytes_moved), logical),
    );
    set.set(
        "gnode.retain.bytes_reclaimed",
        x.retention.bytes_reclaimed as f64,
    );

    // ---- slimstore: where the stored bytes are, and what its own bookkeeping costs.
    set.set(
        "slimstore.space.container_per_logical",
        ratio(x.space.container_bytes as f64, logical),
    );
    set.set(
        "slimstore.space.recipe_per_logical",
        ratio(x.space.recipe_bytes as f64, logical),
    );
    set.set(
        "slimstore.space.global_index_per_logical",
        ratio(x.space.global_index_bytes as f64, logical),
    );
    set.set(
        "slimstore.space.redundancy_per_logical",
        ratio(x.space.redundancy_bytes as f64, logical),
    );
    set.set(
        "slimstore.space.other_per_logical",
        ratio(
            (x.space.other_bytes + x.space.quarantine_bytes) as f64,
            logical,
        ),
    );
    set.set(
        "slimstore.telemetry_snapshot_us",
        kernels::time_per_op(200, || {
            std::hint::black_box(store.telemetry_snapshot());
        }) * 1e6,
    );
    set.set(
        "slimstore.reopen_s",
        match &deployment.attached {
            Some(attached) => {
                let start = Instant::now();
                SlimStoreBuilder::in_memory()
                    .with_object_store(attached.clone())
                    .build()
                    .map_err(|e| format!("reopening the final repository: {e}"))?;
                start.elapsed().as_secs_f64()
            }
            // A tenant deployment is cached by its manager; there is no second open to time.
            None => 0.0,
        },
    );

    // ---- frontend (only where there is one).
    match &deployment.target {
        Target::Frontend {
            frontend, store, ..
        } => {
            let ms: Vec<f64> = obs.under_load.secs.iter().map(|s| s * 1e3).collect();
            set.set("frontend.restore_file_n", ms.len() as f64);
            set.set("frontend.restore_file_ms_p50", percentile(&ms, 50.0));
            set.set("frontend.restore_file_ms_p95", percentile(&ms, 95.0));
            let fe = frontend.telemetry_snapshot();
            set.set(
                "frontend.queue_wait_ms_p95",
                fe.histogram("frontend.queue_wait_ns.restore")
                    .map_or(0.0, |h| h.p95() as f64 / 1e6),
            );
            set.set("frontend.shed", fe.counter("frontend.shed") as f64);
            // Same restores through the door and directly, on the quiet store.
            let probes: Vec<FileId> = x
                .files
                .iter()
                .take(16)
                .map(|(name, _)| FileId::new(name.clone()))
                .collect();
            let mut through = 0f64;
            let mut direct = 0f64;
            for file in &probes {
                let start = Instant::now();
                deployment
                    .target
                    .restore_file(file, x.latest_version)
                    .map_err(|e| format!("frontend overhead probe: {e}"))?;
                through += start.elapsed().as_secs_f64();
                let start = Instant::now();
                store
                    .restore_file(file, x.latest_version)
                    .map_err(|e| format!("direct overhead probe: {e}"))?;
                direct += start.elapsed().as_secs_f64();
            }
            set.set(
                "frontend.overhead_us",
                (through - direct) / probes.len() as f64 * 1e6,
            );
        }
        Target::Direct { .. } => {
            for name in [
                "frontend.restore_file_n",
                "frontend.restore_file_ms_p50",
                "frontend.restore_file_ms_p95",
                "frontend.queue_wait_ms_p95",
                "frontend.shed",
                "frontend.overhead_us",
            ] {
                set.set(name, 0.0);
            }
        }
    }

    // ---- kernels over the workload's own bytes and objects.
    kernels::run(set, &obs.sample, store, x.latest_version, cfg.scale_div)?;

    set.set(
        "trace.overhead_ratio",
        ratio(backup_mbps(obs), x.untraced_backup_mbps),
    );
    Ok(())
}
