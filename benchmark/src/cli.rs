//! Command line: run one workload (the driver's form), all of them, or
//! compare two result files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::harness::{self, RunConfig, RunOutput};
use crate::json::{self, Value};
use crate::workloads::{self, RUN_SECONDS};

const USAGE: &str = "\
usage: slim-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace [0|1]]
       slim-benchmark --check <A.json> <B.json>

  --workload  one of db-incr-cpu, db-incr-wan, ingest-unique-text, mixed-rw, or all (default)
  --seed      the only input of the data generator (default 1)
  --seconds   measured seconds a run aims for (default 18)
  --trace     1: record spans, report the per-layer metrics, write out/<workload>.trace.json
  --check     compare two result files against the bounds in BENCHMARK.json

A single workload prints every metric by name with its unit and, as the last
line, one JSON object. `all` runs each workload in a process of its own and
writes out/result.json (out/result.trace.json with --trace 1).";

/// The package directory: where `out/` lives and next to which `BENCHMARK.json` sits.
fn package_dir() -> PathBuf {
    let built_at = Path::new(env!("CARGO_MANIFEST_DIR"));
    if built_at.is_dir() {
        built_at.to_path_buf()
    } else {
        PathBuf::from(".")
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: Option<(PathBuf, PathBuf)>,
    /// Internal: print the untraced `backup_mbps` of the workload and exit
    /// (what a traced run starts a fresh process for).
    reference_backup: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        check: None,
        reference_backup: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = value("--workload")?,
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds < 0.0 {
                    return Err("--seconds must not be negative".into());
                }
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => out.check = Some((value("--check")?.into(), value("--check")?.into())),
            "--reference-backup" => out.reference_backup = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// The driver's result object for one run.
fn result_value(out: &RunOutput) -> Value {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let entry = BTreeMap::from([
                ("value".to_string(), Value::Num(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), Value::Object(entry))
        })
        .collect();
    Value::Object(BTreeMap::from([
        ("correct".to_string(), Value::Bool(out.correct)),
        ("attempted".to_string(), Value::Num(out.attempted as f64)),
        ("failed".to_string(), Value::Num(out.failed as f64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]))
}

fn run_one(args: &Args, started: Instant) -> Result<i32, String> {
    let spec = workloads::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n\n{USAGE}", args.workload))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale_div: 1,
        out_dir: Some(package_dir().join("out")),
        started,
        reference_exe: std::env::current_exe().ok(),
    };
    if args.reference_backup {
        println!("{}", harness::reference_backup_mbps(&spec, &cfg)?);
        return Ok(0);
    }
    let out = harness::run(&spec, &cfg)?;
    println!(
        "workload {} seed {} {} run: {} operations, {} failed (failed_ops_share {})",
        spec.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed,
        json::number(out.failed as f64 / out.attempted.max(1) as f64),
    );
    for e in &out.errors {
        println!("  FAILED {e}");
    }
    for m in &out.metrics {
        println!("  {:<44} {:>16} {}", m.name, json::number(m.value), m.unit);
    }
    println!("{}", result_value(&out).render());
    Ok(0)
}

/// Run every workload, each in a process of its own (peak memory is a
/// per-process number), and collect the result lines into one file.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut results = BTreeMap::new();
    let mut all_correct = true;
    for spec in workloads::all() {
        let output = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {} run: {e}", spec.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!(
                "the {} run exited with {}",
                spec.name, output.status
            ));
        }
        let last = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("the {} run printed nothing", spec.name))?;
        let value = json::parse(last).map_err(|e| format!("result line of {}: {e}", spec.name))?;
        all_correct &= value.get("correct") == Some(&Value::Bool(true));
        results.insert(spec.name.to_string(), value);
    }
    let doc = Value::Object(BTreeMap::from([
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("workloads".to_string(), Value::Object(results)),
    ]));
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(if args.trace {
        "result.trace.json"
    } else {
        "result.json"
    });
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct { 0 } else { 1 })
}

/// Entry point; returns the process exit code.
pub fn main(started: Instant, args: Vec<String>) -> i32 {
    let outcome = parse_args(&args).and_then(|args| match &args.check {
        Some((a, b)) => crate::check::run(&package_dir().join("..").join("BENCHMARK.json"), a, b),
        None if args.workload == "all" => run_all(&args),
        None => run_one(&args, started),
    });
    match outcome {
        Ok(code) => code,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            0
        }
        Err(msg) => {
            eprintln!("slim-benchmark: {msg}");
            2
        }
    }
}
