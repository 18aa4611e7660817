//! The `slim` command-line tool: multi-version deduplicating backups of
//! a directory tree into a repository directory (a [`slim_oss::LocalDiskOss`]
//! bucket).
//!
//! ```text
//! slim init     <repo>
//! slim backup   <repo> <source-dir> [--jobs N] [--pipeline N]
//! slim restore  <repo> <version> <target-dir> [--jobs N]
//! slim versions <repo>
//! slim files    <repo> <version>
//! slim gc       <repo> --keep N
//! slim space    <repo>
//! slim check    <repo>
//! slim diff     <repo> <versionA> <versionB>
//! slim cat      <repo> <version> <file>        (file bytes to stdout)
//! slim stats    <repo> [--qos]                 (telemetry snapshot as JSON;
//!                                               --qos appends a human-readable
//!                                               frontend queue/QoS section)
//! slim scrub    <repo> [--repair] [--purge] [--force]
//!                                              (journal replay + checksum sweep;
//!                                               --repair reconstructs from the
//!                                               redundancy plane, --purge drops
//!                                               repaired quarantine copies,
//!                                               --force purges even lost ones)
//! ```
//!
//! Every backup captures the full tree as a new version; deduplication makes
//! the incremental cost proportional to the change, and the G-node cycle
//! (run automatically after each backup) performs exact dedup and compacts
//! sparse containers for the new version.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use slim_oss::LocalDiskOss;
use slim_types::{FileId, Result, SlimConfig, SlimError, VersionId};
use slimstore::{SlimStore, SlimStoreBuilder};

/// Marker object proving a directory is a SLIMSTORE repository.
const REPO_MARKER: &str = "slimstore-repo-v1";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Init {
        repo: PathBuf,
    },
    Backup {
        repo: PathBuf,
        source: PathBuf,
        jobs: usize,
        /// `--pipeline N`: per-job thread budget for the pipelined backup
        /// plane (`0` forces the sequential path; absent keeps the store
        /// default).
        pipeline: Option<usize>,
    },
    Restore {
        repo: PathBuf,
        version: u64,
        target: PathBuf,
        jobs: usize,
    },
    Versions {
        repo: PathBuf,
    },
    Files {
        repo: PathBuf,
        version: u64,
    },
    Gc {
        repo: PathBuf,
        keep: usize,
    },
    Space {
        repo: PathBuf,
    },
    Check {
        repo: PathBuf,
    },
    Diff {
        repo: PathBuf,
        from: u64,
        to: u64,
    },
    Cat {
        repo: PathBuf,
        version: u64,
        file: String,
    },
    Stats {
        repo: PathBuf,
        qos: bool,
    },
    Scrub {
        repo: PathBuf,
        repair: bool,
        purge: bool,
        force: bool,
    },
}

/// Parse argv (without the program name).
pub fn parse(args: &[String]) -> std::result::Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    let mut positional: Vec<&String> = Vec::new();
    let mut jobs = 4usize;
    let mut pipeline: Option<usize> = None;
    let mut keep: Option<usize> = None;
    let mut repair = false;
    let mut purge = false;
    let mut force = false;
    let mut qos = false;
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--jobs" => {
                i += 1;
                jobs = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--jobs needs a number")?;
            }
            "--pipeline" => {
                i += 1;
                pipeline = Some(
                    rest.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--pipeline needs a thread count")?,
                );
            }
            "--keep" => {
                i += 1;
                keep = Some(
                    rest.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--keep needs a number")?,
                );
            }
            "--repair" => repair = true,
            "--purge" => purge = true,
            "--force" => force = true,
            "--qos" => qos = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            _ => positional.push(rest[i]),
        }
        i += 1;
    }
    let pos = |i: usize| -> std::result::Result<&String, String> {
        positional.get(i).copied().ok_or_else(usage)
    };
    let version = |i: usize| -> std::result::Result<u64, String> {
        let raw = pos(i)?;
        raw.trim_start_matches('v')
            .parse()
            .map_err(|_| format!("bad version {raw:?}"))
    };
    Ok(match cmd.as_str() {
        "init" => Command::Init {
            repo: pos(0)?.into(),
        },
        "backup" => Command::Backup {
            repo: pos(0)?.into(),
            source: pos(1)?.into(),
            jobs,
            pipeline,
        },
        "restore" => Command::Restore {
            repo: pos(0)?.into(),
            version: version(1)?,
            target: pos(2)?.into(),
            jobs,
        },
        "versions" => Command::Versions {
            repo: pos(0)?.into(),
        },
        "files" => Command::Files {
            repo: pos(0)?.into(),
            version: version(1)?,
        },
        "gc" => Command::Gc {
            repo: pos(0)?.into(),
            keep: keep.ok_or("gc requires --keep N")?,
        },
        "space" => Command::Space {
            repo: pos(0)?.into(),
        },
        "check" => Command::Check {
            repo: pos(0)?.into(),
        },
        "diff" => Command::Diff {
            repo: pos(0)?.into(),
            from: version(1)?,
            to: version(2)?,
        },
        "cat" => Command::Cat {
            repo: pos(0)?.into(),
            version: version(1)?,
            file: pos(2)?.clone(),
        },
        "stats" => Command::Stats {
            repo: pos(0)?.into(),
            qos,
        },
        "scrub" => Command::Scrub {
            repo: pos(0)?.into(),
            repair,
            purge,
            force,
        },
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    })
}

fn usage() -> String {
    "usage: slim <init|backup|restore|versions|files|gc|space|check|diff|cat|stats|scrub> ... (see --help)".to_string()
}

fn open_repo(repo: &Path, must_exist: bool) -> Result<SlimStore> {
    open_repo_with(repo, must_exist, None)
}

fn open_repo_with(repo: &Path, must_exist: bool, config: Option<SlimConfig>) -> Result<SlimStore> {
    let oss = LocalDiskOss::open(repo)?;
    use slim_oss::ObjectStore;
    if must_exist && !oss.exists(REPO_MARKER)? {
        return Err(SlimError::InvalidConfig(format!(
            "{} is not a slimstore repository (run `slim init` first)",
            repo.display()
        )));
    }
    let mut builder = SlimStoreBuilder::in_memory().with_object_store(Arc::new(oss));
    if let Some(config) = config {
        builder = builder.with_config(config);
    }
    builder.build()
}

/// Collect the relative paths + contents of every regular file under `dir`.
fn read_tree(dir: &Path) -> Result<Vec<(FileId, Vec<u8>)>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(FileId, Vec<u8>)>) -> Result<()> {
        let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<std::io::Result<_>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else if path.is_file() {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked under root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((FileId::new(rel), fs::read(&path)?));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out)?;
    Ok(out)
}

/// Reject file ids that would escape the restore target.
fn safe_relative(id: &FileId) -> Result<PathBuf> {
    let mut path = PathBuf::new();
    for segment in id.as_str().split('/') {
        if segment.is_empty() || segment == "." || segment == ".." {
            return Err(SlimError::InvalidConfig(format!(
                "refusing to restore unsafe path {id}"
            )));
        }
        path.push(segment);
    }
    Ok(path)
}

/// Render the `frontend.*` metrics of a snapshot as the human-readable
/// queue/QoS section appended by `slim stats --qos`. All zeros (and `-`
/// for unrecorded latencies) when no request plane ran in this process;
/// piped from a process hosting a [`slim_frontend::Frontend`], it shows
/// the admission and scheduling story of the whole session.
pub fn qos_section(snap: &slim_telemetry::TelemetrySnapshot) -> String {
    let p95_ms = |class: slim_frontend::Priority| -> String {
        match snap.histogram(&format!("frontend.latency_ns.{}", class.label())) {
            Some(h) if h.count > 0 => format!("{:.1}ms", h.p95() as f64 / 1e6),
            _ => "-".to_string(),
        }
    };
    let class_depth = |class: slim_frontend::Priority| -> i64 {
        snap.gauge(&format!("frontend.class.{}.queue_depth", class.label()))
    };
    use slim_frontend::Priority;
    [
        "qos:".to_string(),
        format!(
            "  admitted {}, completed {}, failed {}",
            snap.counter("frontend.admitted"),
            snap.counter("frontend.completed"),
            snap.counter("frontend.failed"),
        ),
        format!(
            "  shed {} (rate_limit {}, queue_full {}, deadline {}, draining {}), timeouts {}",
            snap.counter("frontend.shed"),
            snap.counter("frontend.shed.rate_limit"),
            snap.counter("frontend.shed.queue_full"),
            snap.counter("frontend.shed.deadline"),
            snap.counter("frontend.shed.draining"),
            snap.counter("frontend.timeout"),
        ),
        format!(
            "  queued {} (restore {}, backup {}, maintenance {}), inflight {} ({:.1} MiB)",
            snap.gauge("frontend.queue_depth"),
            class_depth(Priority::Restore),
            class_depth(Priority::Backup),
            class_depth(Priority::Maintenance),
            snap.gauge("frontend.inflight"),
            snap.gauge("frontend.inflight_bytes") as f64 / (1024.0 * 1024.0),
        ),
        format!(
            "  p95 latency: restore {}, backup {}, maintenance {}",
            p95_ms(Priority::Restore),
            p95_ms(Priority::Backup),
            p95_ms(Priority::Maintenance),
        ),
        resilience_section(snap),
    ]
    .join("\n")
}

/// Render the gray-failure resilience counters (`oss.hedge.*`,
/// `oss.breaker.*`, `oss.health.*`, `retry.*`) of a snapshot. All zeros
/// (and `-` for unrecorded histograms) when the deployment ran without the
/// hedging plane or never saw a fault.
pub fn resilience_section(snap: &slim_telemetry::TelemetrySnapshot) -> String {
    let p95_ms = |name: &str| -> String {
        match snap.histogram(name) {
            Some(h) if h.count > 0 => format!("{:.2}ms", h.p95() as f64 / 1e6),
            _ => "-".to_string(),
        }
    };
    // Endpoint health gauges are per-index: collect `oss.health.<n>.score`
    // in index order into one line.
    let mut scores = Vec::new();
    for endpoint in 0.. {
        let key = format!("oss.health.{endpoint}.score");
        if !snap.gauges.contains_key(&key) {
            break;
        }
        scores.push(format!("{endpoint}: {}", snap.gauge(&key)));
    }
    let scores = if scores.is_empty() {
        "-".to_string()
    } else {
        scores.join(", ")
    };
    [
        "resilience:".to_string(),
        format!(
            "  hedges: issued {} (won {}, wasted {}), failovers {}, deadline refusals {}, p95 delay {}",
            snap.counter("oss.hedge.issued"),
            snap.counter("oss.hedge.won"),
            snap.counter("oss.hedge.wasted"),
            snap.counter("oss.hedge.failovers"),
            snap.counter("oss.hedge.deadline_refused"),
            p95_ms("oss.hedge.delay_nanos"),
        ),
        format!(
            "  breakers: opened {}, closed {}, probes {}, shed {}",
            snap.counter("oss.breaker.opened"),
            snap.counter("oss.breaker.closed"),
            snap.counter("oss.breaker.probes"),
            snap.counter("oss.breaker.shed"),
        ),
        format!(
            "  retries: attempts {}, retries {}, giveups {}, p95 backoff wait {}",
            snap.counter("retry.attempts"),
            snap.counter("retry.retries"),
            snap.counter("retry.giveups"),
            p95_ms("retry.backoff_wait_nanos"),
        ),
        format!("  endpoint scores: {scores}"),
    ]
    .join("\n")
}

/// Execute a parsed command; returns the human-readable report.
pub fn run(cmd: Command) -> Result<String> {
    match cmd {
        Command::Init { repo } => {
            let oss = LocalDiskOss::open(&repo)?;
            use slim_oss::ObjectStore;
            if oss.exists(REPO_MARKER)? {
                return Err(SlimError::InvalidConfig(format!(
                    "{} is already a repository",
                    repo.display()
                )));
            }
            oss.put(REPO_MARKER, bytes::Bytes::from_static(b"1"))?;
            Ok(format!(
                "initialized empty slimstore repository at {}",
                repo.display()
            ))
        }
        Command::Backup {
            repo,
            source,
            jobs,
            pipeline,
        } => {
            let config = pipeline.map(|threads| {
                let mut cfg = SlimConfig::default();
                cfg.backup_pipeline_threads = threads;
                cfg
            });
            let store = open_repo_with(&repo, true, config)?;
            let files = read_tree(&source)?;
            if files.is_empty() {
                return Err(SlimError::InvalidConfig(format!(
                    "{} contains no files",
                    source.display()
                )));
            }
            let count = files.len();
            let report = store.backup_version_with_jobs(files, jobs)?;
            store.run_gnode_cycle(report.version)?;
            Ok(format!(
                "{}: {} files, {:.1} MiB logical, {:.1} MiB new, dedup {:.1}%",
                report.version,
                count,
                report.stats.logical_bytes as f64 / (1024.0 * 1024.0),
                report.stats.stored_bytes as f64 / (1024.0 * 1024.0),
                report.stats.dedup_ratio() * 100.0,
            ))
        }
        Command::Restore {
            repo,
            version,
            target,
            jobs,
        } => {
            let store = open_repo(&repo, true)?;
            let restored = store.restore_version(VersionId(version), jobs)?;
            fs::create_dir_all(&target)?;
            let mut bytes = 0u64;
            let count = restored.len();
            for (file, data, _) in restored {
                let rel = safe_relative(&file)?;
                let path = target.join(rel);
                if let Some(parent) = path.parent() {
                    fs::create_dir_all(parent)?;
                }
                bytes += data.len() as u64;
                fs::write(path, data)?;
            }
            Ok(format!(
                "restored v{version}: {count} files, {:.1} MiB -> {}",
                bytes as f64 / (1024.0 * 1024.0),
                target.display(),
            ))
        }
        Command::Versions { repo } => {
            let store = open_repo(&repo, true)?;
            let versions = store.versions();
            if versions.is_empty() {
                return Ok("no versions".to_string());
            }
            let mut lines = Vec::new();
            for v in versions {
                let files = store.files_of(v)?.len();
                lines.push(format!("{v}\t{files} files"));
            }
            Ok(lines.join("\n"))
        }
        Command::Files { repo, version } => {
            let store = open_repo(&repo, true)?;
            let files = store.files_of(VersionId(version))?;
            Ok(files
                .iter()
                .map(|f| f.as_str().to_string())
                .collect::<Vec<_>>()
                .join("\n"))
        }
        Command::Gc { repo, keep } => {
            let store = open_repo(&repo, true)?;
            let before = store.versions().len();
            let report = store.retain_last(keep)?;
            let vacuumed = store.gnode().vacuum()?;
            Ok(format!(
                "kept {} of {} versions; reclaimed {:.1} MiB (+{:.1} MiB vacuumed), {} containers, {} recipes, {} stale redundancy objects dropped",
                store.versions().len(),
                before,
                report.bytes_reclaimed as f64 / (1024.0 * 1024.0),
                vacuumed.bytes_reclaimed as f64 / (1024.0 * 1024.0),
                report.containers_deleted,
                report.recipes_deleted,
                report.redundancy_objects_dropped(),
            ))
        }
        Command::Diff { repo, from, to } => {
            let store = open_repo(&repo, true)?;
            let (va, vb) = (VersionId(from), VersionId(to));
            let files_a: std::collections::BTreeSet<FileId> =
                store.files_of(va)?.into_iter().collect();
            let files_b: std::collections::BTreeSet<FileId> =
                store.files_of(vb)?.into_iter().collect();
            let mut lines = Vec::new();
            for f in files_b.difference(&files_a) {
                lines.push(format!("A  {f}"));
            }
            for f in files_a.difference(&files_b) {
                lines.push(format!("D  {f}"));
            }
            for f in files_a.intersection(&files_b) {
                let ra = store.storage().get_recipe(f, va)?;
                let rb = store.storage().get_recipe(f, vb)?;
                let set_a: std::collections::HashSet<_> =
                    ra.records().map(|r| (r.fp, r.size)).collect();
                let total_b = rb.record_count().max(1);
                let shared = rb
                    .records()
                    .filter(|r| set_a.contains(&(r.fp, r.size)))
                    .count();
                if shared == total_b && ra.record_count() == rb.record_count() {
                    continue; // unchanged
                }
                lines.push(format!(
                    "M  {f}  ({:.1}% of v{to} content is new)",
                    100.0 * (total_b - shared) as f64 / total_b as f64
                ));
            }
            if lines.is_empty() {
                lines.push(format!("no differences between v{from} and v{to}"));
            }
            Ok(lines.join("\n"))
        }
        Command::Cat {
            repo,
            version,
            file,
        } => {
            let store = open_repo(&repo, true)?;
            let mut stdout = std::io::stdout().lock();
            store.restore_file_to(&FileId::new(file), VersionId(version), &mut stdout)?;
            use std::io::Write;
            stdout.flush()?;
            Ok(String::new())
        }
        Command::Check { repo } => {
            let store = open_repo(&repo, true)?;
            let records = store.scrub()?;
            Ok(format!(
                "ok: {} versions, {records} chunk records, all resolvable",
                store.versions().len(),
            ))
        }
        Command::Stats { repo, qos } => {
            // Telemetry is process-local (counters start at zero for each
            // invocation), so the snapshot covers the traffic of opening
            // the repository: index loads, marker checks, LSM scans. Piped
            // after a long-running import it covers the whole session.
            let store = open_repo(&repo, true)?;
            let snap = store.telemetry_snapshot();
            if qos {
                Ok(format!("{}\n{}", snap.to_json(), qos_section(&snap)))
            } else {
                Ok(snap.to_json())
            }
        }
        Command::Scrub {
            repo,
            repair,
            purge,
            force,
        } => {
            // Opening the repository already replays any outstanding
            // maintenance intents (crash recovery runs on every open); the
            // explicit call is an idempotent re-check and the telemetry
            // snapshot below carries the counters of the open-time replay.
            let store = open_repo(&repo, true)?;
            let recovery = store.recover()?;
            let (integrity, repaired) = if repair {
                let (integrity, repair_report) = store.repair()?;
                (integrity, Some(repair_report))
            } else {
                (store.verify_checksums()?, None)
            };
            let (repairable, lost) = store.classify_quarantine()?;
            let snap = store.telemetry_snapshot();
            let mut lines = vec![
                format!(
                    "recovery: replayed {} intents ({} rolled forward, {} rolled back, {} journal records quarantined)",
                    snap.counter("gnode.journal.replayed"),
                    snap.counter("gnode.journal.rolled_forward"),
                    snap.counter("gnode.journal.rolled_back"),
                    snap.counter("gnode.journal.corrupt"),
                ),
                format!(
                    "index: {} tables quarantined, {} entries re-derived",
                    snap.counter("gnode.index.tables_quarantined"),
                    snap.counter("gnode.index.entries_rederived"),
                ),
                format!(
                    "integrity: checked {} containers, quarantined {} containers, dropped {} index entries and {} rotten replicas",
                    integrity.containers_checked,
                    integrity.containers_quarantined,
                    integrity.index_entries_removed,
                    integrity.replicas_dropped,
                ),
                format!("quarantine: {repairable} containers repairable, {lost} lost"),
            ];
            if let Some(r) = &repaired {
                lines.push(format!(
                    "repair: {} containers reconstructed ({} objects rewritten, {} index entries restored), {} unrepairable",
                    r.containers_repaired,
                    r.objects_rewritten,
                    r.index_entries_restored,
                    r.containers_unrepairable,
                ));
            }
            if purge {
                let p = store.purge_quarantine(force)?;
                lines.push(format!(
                    "purge: {} quarantined objects deleted, {} kept",
                    p.objects_purged, p.objects_kept,
                ));
            }
            let healthy = recovery.is_clean()
                && integrity.containers_quarantined == 0
                && snap.counter("gnode.quarantined_objects") == 0;
            let healed = repaired
                .as_ref()
                .is_some_and(|r| r.containers_unrepairable == 0 && lost == 0);
            if healthy {
                lines.push("ok: repository is clean".to_string());
            } else if healed {
                lines.push("ok: damage found and repaired from the redundancy plane".to_string());
            } else {
                lines.push(format!(
                    "attention: inspect objects under '{}' in the repository",
                    slim_types::layout::QUARANTINE_PREFIX
                ));
            }
            Ok(lines.join("\n"))
        }
        Command::Space { repo } => {
            let store = open_repo(&repo, true)?;
            let s = store.space_report()?;
            let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
            Ok(format!(
                "containers: {:.1} MiB\n  logical:  {:.1} MiB\n  stored:   {:.1} MiB (ratio {:.2})\nrecipes:    {:.1} MiB\nglobal idx: {:.1} MiB\nredundancy: {:.1} MiB\n  replicas: {:.1} MiB\n  parity:   {:.1} MiB\n  meta:     {:.1} MiB\nquarantine: {:.1} MiB\nother:      {:.1} MiB\ntotal:      {:.1} MiB",
                mib(s.container_bytes),
                mib(s.container_logical_bytes),
                mib(s.container_stored_payload_bytes),
                s.compression_ratio(),
                mib(s.recipe_bytes),
                mib(s.global_index_bytes),
                mib(s.redundancy_bytes),
                mib(s.redundancy_replica_bytes),
                mib(s.redundancy_parity_bytes),
                mib(s.redundancy_meta_replica_bytes),
                mib(s.quarantine_bytes),
                mib(s.other_bytes),
                mib(s.total()),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slim-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_commands() {
        assert_eq!(
            parse(&s(&["init", "/tmp/r"])).unwrap(),
            Command::Init {
                repo: "/tmp/r".into()
            }
        );
        assert_eq!(
            parse(&s(&["backup", "/r", "/src", "--jobs", "8"])).unwrap(),
            Command::Backup {
                repo: "/r".into(),
                source: "/src".into(),
                jobs: 8,
                pipeline: None
            }
        );
        assert_eq!(
            parse(&s(&["backup", "/r", "/src", "--pipeline", "6"])).unwrap(),
            Command::Backup {
                repo: "/r".into(),
                source: "/src".into(),
                jobs: 4,
                pipeline: Some(6)
            }
        );
        assert!(parse(&s(&["backup", "/r", "/src", "--pipeline"])).is_err());
        assert_eq!(
            parse(&s(&["restore", "/r", "v3", "/out"])).unwrap(),
            Command::Restore {
                repo: "/r".into(),
                version: 3,
                target: "/out".into(),
                jobs: 4
            }
        );
        assert_eq!(
            parse(&s(&["gc", "/r", "--keep", "5"])).unwrap(),
            Command::Gc {
                repo: "/r".into(),
                keep: 5
            }
        );
        assert_eq!(
            parse(&s(&["stats", "/r"])).unwrap(),
            Command::Stats {
                repo: "/r".into(),
                qos: false
            }
        );
        assert_eq!(
            parse(&s(&["stats", "/r", "--qos"])).unwrap(),
            Command::Stats {
                repo: "/r".into(),
                qos: true
            }
        );
        assert_eq!(
            parse(&s(&["scrub", "/r"])).unwrap(),
            Command::Scrub {
                repo: "/r".into(),
                repair: false,
                purge: false,
                force: false
            }
        );
        assert_eq!(
            parse(&s(&["scrub", "/r", "--repair", "--purge", "--force"])).unwrap(),
            Command::Scrub {
                repo: "/r".into(),
                repair: true,
                purge: true,
                force: true
            }
        );
        assert!(parse(&s(&["gc", "/r"])).is_err());
        assert!(parse(&s(&["bogus"])).is_err());
        assert!(parse(&s(&["restore", "/r", "notanumber", "/out"])).is_err());
        assert!(parse(&s(&[])).is_err());
        assert!(parse(&s(&["backup", "/r", "/src", "--wat"])).is_err());
    }

    #[test]
    fn full_cli_lifecycle() {
        let repo = temp_dir("repo");
        let src = temp_dir("src");
        let out = temp_dir("out");
        fs::create_dir_all(src.join("sub")).unwrap();
        fs::write(src.join("a.txt"), b"hello world".repeat(500)).unwrap();
        fs::write(src.join("sub/b.bin"), vec![7u8; 9000]).unwrap();

        run(Command::Init { repo: repo.clone() }).unwrap();
        // Double init rejected.
        assert!(run(Command::Init { repo: repo.clone() }).is_err());

        let msg = run(Command::Backup {
            repo: repo.clone(),
            source: src.clone(),
            jobs: 2,
            pipeline: None,
        })
        .unwrap();
        assert!(msg.contains("2 files"), "{msg}");

        // Mutate and take a second version, through the pipelined plane.
        fs::write(src.join("a.txt"), b"hello world".repeat(501)).unwrap();
        run(Command::Backup {
            repo: repo.clone(),
            source: src.clone(),
            jobs: 2,
            pipeline: Some(4),
        })
        .unwrap();

        let versions = run(Command::Versions { repo: repo.clone() }).unwrap();
        assert!(
            versions.contains("v0") && versions.contains("v1"),
            "{versions}"
        );
        let files = run(Command::Files {
            repo: repo.clone(),
            version: 1,
        })
        .unwrap();
        assert!(
            files.contains("a.txt") && files.contains("sub/b.bin"),
            "{files}"
        );

        run(Command::Restore {
            repo: repo.clone(),
            version: 1,
            target: out.clone(),
            jobs: 2,
        })
        .unwrap();
        assert_eq!(
            fs::read(out.join("a.txt")).unwrap(),
            b"hello world".repeat(501)
        );
        assert_eq!(fs::read(out.join("sub/b.bin")).unwrap(), vec![7u8; 9000]);

        let space = run(Command::Space { repo: repo.clone() }).unwrap();
        assert!(space.contains("total"), "{space}");
        for share in ["  replicas:", "  parity:", "  meta:"] {
            assert!(space.contains(share), "{space}");
        }
        let check = run(Command::Check { repo: repo.clone() }).unwrap();
        assert!(check.starts_with("ok:"), "{check}");
        let diff = run(Command::Diff {
            repo: repo.clone(),
            from: 0,
            to: 1,
        })
        .unwrap();
        assert!(diff.contains("M  a.txt"), "{diff}");
        assert!(!diff.contains("b.bin"), "unchanged file listed: {diff}");
        let stats = run(Command::Stats {
            repo: repo.clone(),
            qos: false,
        })
        .unwrap();
        let snap = slim_telemetry::TelemetrySnapshot::from_json(&stats).unwrap();
        assert!(
            snap.counters.contains_key("oss.get_requests"),
            "canonical OSS counters present: {stats}"
        );
        // --qos appends the queue/QoS section after the JSON document.
        let stats = run(Command::Stats {
            repo: repo.clone(),
            qos: true,
        })
        .unwrap();
        let (json, qos) = stats.split_once("\nqos:").expect("qos section present");
        assert!(slim_telemetry::TelemetrySnapshot::from_json(json).is_ok());
        assert!(qos.contains("admitted 0"), "no frontend ran: {qos}");
        assert!(qos.contains("p95 latency: restore -"), "{qos}");
        let gc = run(Command::Gc {
            repo: repo.clone(),
            keep: 1,
        })
        .unwrap();
        assert!(gc.contains("kept 1 of 2"), "{gc}");
        // v0 gone, v1 still restorable.
        assert!(run(Command::Files {
            repo: repo.clone(),
            version: 0
        })
        .is_err());
        run(Command::Restore {
            repo: repo.clone(),
            version: 1,
            target: out.clone(),
            jobs: 1,
        })
        .unwrap();
        run(Command::Check { repo: repo.clone() }).unwrap();

        for d in [repo, src, out] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn diff_reports_added_and_removed() {
        let repo = temp_dir("diff");
        let src = temp_dir("diff-src");
        run(Command::Init { repo: repo.clone() }).unwrap();
        fs::write(src.join("keep.txt"), b"same").unwrap();
        fs::write(src.join("old.txt"), b"going away").unwrap();
        run(Command::Backup {
            repo: repo.clone(),
            source: src.clone(),
            jobs: 1,
            pipeline: None,
        })
        .unwrap();
        fs::remove_file(src.join("old.txt")).unwrap();
        fs::write(src.join("new.txt"), b"brand new").unwrap();
        run(Command::Backup {
            repo: repo.clone(),
            source: src.clone(),
            jobs: 1,
            pipeline: None,
        })
        .unwrap();
        let diff = run(Command::Diff {
            repo: repo.clone(),
            from: 0,
            to: 1,
        })
        .unwrap();
        assert!(diff.contains("A  new.txt"), "{diff}");
        assert!(diff.contains("D  old.txt"), "{diff}");
        assert!(!diff.contains("keep.txt"), "{diff}");
        for d in [repo, src] {
            let _ = fs::remove_dir_all(d);
        }
    }

    fn scrub_cmd(repo: &Path, repair: bool, purge: bool, force: bool) -> Command {
        Command::Scrub {
            repo: repo.to_path_buf(),
            repair,
            purge,
            force,
        }
    }

    #[test]
    fn scrub_repairs_corruption_from_redundancy_plane() {
        let repo = temp_dir("scrub");
        let src = temp_dir("scrub-src");
        let out = temp_dir("scrub-out");
        let payload = b"payload bytes ".repeat(1500);
        fs::write(src.join("f.bin"), &payload).unwrap();
        run(Command::Init { repo: repo.clone() }).unwrap();
        run(Command::Backup {
            repo: repo.clone(),
            source: src.clone(),
            jobs: 1,
            pipeline: None,
        })
        .unwrap();

        let msg = run(scrub_cmd(&repo, false, false, false)).unwrap();
        assert!(msg.contains("ok: repository is clean"), "{msg}");

        // Flip one byte in one stored container data object (bit rot).
        {
            use slim_oss::ObjectStore;
            let oss = LocalDiskOss::open(&repo).unwrap();
            let key = oss
                .list("containers/")
                .into_iter()
                .find(|k| k.ends_with("/data"))
                .expect("backup stored containers");
            let mut buf = oss.get(&key).unwrap().to_vec();
            buf[0] ^= 0xFF;
            oss.put(&key, buf.into()).unwrap();
        }

        // Without --repair: the damage is detected, quarantined, and
        // reported repairable (the backup's cycle built the plane).
        let msg = run(scrub_cmd(&repo, false, false, false)).unwrap();
        assert!(msg.contains("attention"), "{msg}");
        assert!(!msg.contains("quarantined 0 containers"), "{msg}");
        assert!(msg.contains("1 containers repairable, 0 lost"), "{msg}");

        // With --repair --purge: reconstructed, index re-pointed, and the
        // now-redundant quarantine copies dropped.
        let msg = run(scrub_cmd(&repo, true, true, false)).unwrap();
        assert!(
            msg.contains("ok: damage found and repaired") || msg.contains("repository is clean"),
            "{msg}"
        );
        assert!(msg.contains("containers reconstructed"), "{msg}");
        assert!(msg.contains("0 kept"), "{msg}");
        // Everything restores byte-identically and re-verifies clean.
        run(Command::Check { repo: repo.clone() }).unwrap();
        run(Command::Restore {
            repo: repo.clone(),
            version: 0,
            target: out.clone(),
            jobs: 1,
        })
        .unwrap();
        assert_eq!(fs::read(out.join("f.bin")).unwrap(), payload);
        let msg = run(scrub_cmd(&repo, false, false, false)).unwrap();
        assert!(msg.contains("ok: repository is clean"), "{msg}");

        for d in [repo, src, out] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn scrub_reports_lost_containers_when_no_plane_survives() {
        let repo = temp_dir("scrub-lost");
        let src = temp_dir("scrub-lost-src");
        fs::write(src.join("f.bin"), b"payload bytes ".repeat(1500)).unwrap();
        run(Command::Init { repo: repo.clone() }).unwrap();
        run(Command::Backup {
            repo: repo.clone(),
            source: src.clone(),
            jobs: 1,
            pipeline: None,
        })
        .unwrap();

        // Destroy both the primaries and the entire redundancy plane —
        // beyond the single-fault model, so the damage is honest loss.
        {
            use slim_oss::ObjectStore;
            let oss = LocalDiskOss::open(&repo).unwrap();
            for key in oss.list("redundancy/") {
                oss.delete(&key).unwrap();
            }
            let keys: Vec<String> = oss
                .list("containers/")
                .into_iter()
                .filter(|k| k.ends_with("/data"))
                .collect();
            assert!(!keys.is_empty());
            for key in keys {
                let mut buf = oss.get(&key).unwrap().to_vec();
                buf[0] ^= 0xFF;
                oss.put(&key, buf.into()).unwrap();
            }
        }

        let msg = run(scrub_cmd(&repo, true, false, false)).unwrap();
        assert!(msg.contains("attention"), "{msg}");
        assert!(msg.contains("unrepairable"), "{msg}");
        assert!(msg.contains("0 containers repairable"), "{msg}");
        // A non-forced purge keeps the forensic copies; --force drops them.
        let msg = run(scrub_cmd(&repo, false, true, false)).unwrap();
        assert!(msg.contains("0 quarantined objects deleted"), "{msg}");
        let msg = run(scrub_cmd(&repo, false, true, true)).unwrap();
        assert!(msg.contains("0 kept"), "{msg}");
        {
            use slim_oss::ObjectStore;
            let oss = LocalDiskOss::open(&repo).unwrap();
            assert!(oss.list("quarantine/").is_empty());
        }
        // With primaries, plane, and quarantine all gone, the lost chunks
        // fail loudly instead of restoring bad bytes.
        assert!(run(Command::Check { repo: repo.clone() }).is_err());

        for d in [repo, src] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn qos_section_reflects_frontend_activity() {
        use slim_frontend::{FrontendBuilder, FrontendConfig, Request};
        use slim_oss::rocks::RocksConfig;
        use slim_oss::NetworkModel;
        use slim_types::SlimConfig;
        use slimstore::TenantStoreManager;

        let manager = Arc::new(
            TenantStoreManager::in_memory(NetworkModel::instant())
                .with_config(SlimConfig::small_for_tests())
                .with_rocks_config(RocksConfig::small_for_tests()),
        );
        let fe = FrontendBuilder::new(manager)
            .with_config(FrontendConfig::small_for_tests())
            .start()
            .unwrap();
        let report = fe
            .submit(
                "acme",
                Request::Backup {
                    files: vec![(FileId::new("f"), b"qos".repeat(2000))],
                    jobs: 1,
                },
            )
            .unwrap()
            .wait()
            .unwrap()
            .into_backup()
            .unwrap();
        fe.submit(
            "acme",
            Request::RestoreFile {
                file: FileId::new("f"),
                version: report.version,
            },
        )
        .unwrap()
        .wait()
        .unwrap()
        .into_file()
        .unwrap();
        let section = qos_section(&fe.telemetry_snapshot());
        assert!(
            section.contains("admitted 2, completed 2, failed 0"),
            "{section}"
        );
        assert!(section.contains("shed 0"), "{section}");
        assert!(!section.contains("p95 latency: restore -"), "{section}");
        // The resilience block rides along in --qos output; an in-memory run
        // with healthy endpoints reports a quiet plane, not missing metrics.
        assert!(section.contains("resilience:"), "{section}");
        assert!(section.contains("hedges: issued 0"), "{section}");
        assert!(section.contains("breakers: opened 0"), "{section}");
    }

    #[test]
    fn resilience_section_reports_endpoint_scores() {
        let registry = slim_telemetry::Registry::new();
        let scope = registry.scope("oss");
        let tracker = slim_oss::HealthTracker::with_telemetry(2, &scope);
        tracker.record(0, std::time::Duration::from_micros(100), true);
        tracker.record(1, std::time::Duration::from_millis(5), false);
        let section = resilience_section(&registry.snapshot());
        assert!(section.contains("endpoint scores: 0: "), "{section}");
        assert!(section.contains(", 1: "), "{section}");
        // An empty registry renders dashes, not a panic.
        let empty = resilience_section(&slim_telemetry::Registry::new().snapshot());
        assert!(empty.contains("endpoint scores: -"), "{empty}");
        assert!(empty.contains("p95 delay -"), "{empty}");
    }

    #[test]
    fn backup_requires_initialized_repo() {
        let repo = temp_dir("noinit");
        let src = temp_dir("noinit-src");
        fs::write(src.join("f"), b"x").unwrap();
        assert!(run(Command::Backup {
            repo: repo.clone(),
            source: src.clone(),
            jobs: 1,
            pipeline: None
        })
        .is_err());
        for d in [repo, src] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn empty_source_rejected() {
        let repo = temp_dir("empty");
        let src = temp_dir("empty-src");
        run(Command::Init { repo: repo.clone() }).unwrap();
        assert!(run(Command::Backup {
            repo: repo.clone(),
            source: src.clone(),
            jobs: 1,
            pipeline: None
        })
        .is_err());
        for d in [repo, src] {
            let _ = fs::remove_dir_all(d);
        }
    }
}
