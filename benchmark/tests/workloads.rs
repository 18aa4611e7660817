//! Every workload end to end at 1/32 size: byte-equal restores, no failed
//! operation, and every metric of the catalogue emitted — untraced and traced.

use std::time::Instant;

use slim_benchmark::harness::{run, RunConfig};
use slim_benchmark::json::{self, Value};
use slim_benchmark::metrics::{END_TO_END, PER_LAYER};
use slim_benchmark::workloads;

fn config(trace: bool) -> RunConfig {
    RunConfig {
        seed: 11,
        seconds: 0.0,
        trace,
        scale_div: 32,
        out_dir: None,
        started: Instant::now(),
        reference_exe: None,
    }
}

fn check(name: &str, trace: bool) {
    let spec = workloads::find(name).expect("known workload");
    let out = run(&spec, &config(trace)).expect("the run completes");
    assert!(out.correct && out.failed == 0, "{name}: {:?}", out.errors);
    assert!(out.attempted >= (2 * spec.versions + 5 + 4) as u64);
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, catalogue.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{name}: {} is {}", m.name, m.value);
        if !trace {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end metric {} is {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn db_incr_cpu() {
    check("db-incr-cpu", false);
    check("db-incr-cpu", true);
}

#[test]
fn db_incr_wan() {
    check("db-incr-wan", false);
    check("db-incr-wan", true);
}

#[test]
fn ingest_unique_text() {
    check("ingest-unique-text", false);
    check("ingest-unique-text", true);
}

#[test]
fn mixed_rw() {
    check("mixed-rw", false);
    check("mixed-rw", true);
}

#[test]
fn traced_run_writes_its_spans() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("out/test-{}", std::process::id()));
    let spec = workloads::find("db-incr-cpu").expect("known workload");
    let cfg = RunConfig {
        out_dir: Some(dir.clone()),
        ..config(true)
    };
    run(&spec, &cfg).expect("the run completes");
    let text =
        std::fs::read_to_string(dir.join("db-incr-cpu.trace.json")).expect("trace file written");
    std::fs::remove_dir_all(&dir).expect("temp dir removable");
    let spans = json::parse(&text).expect("trace file is JSON");
    let spans = spans.as_array().expect("an array of spans");
    let layer = |l: &str| {
        spans
            .iter()
            .filter(|s| s.get("layer").and_then(Value::as_str) == Some(l))
            .count()
    };
    assert_eq!(layer("lnode.backup"), spec.versions);
    assert_eq!(layer("gnode.cycle"), spec.versions);
    assert!(layer("oss") > 0 && layer("oss.inner") >= layer("oss"));
    for key in [
        "id", "parent", "op_id", "name", "start_ns", "end_ns", "bytes", "items", "ok",
    ] {
        assert!(spans[0].get(key).is_some(), "span lacks {key}");
    }
}

/// `BENCHMARK.json` is the contract the driver reads; the code must agree with it.
#[test]
fn contract_file_matches_the_code() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let contract = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
        .expect("BENCHMARK.json parses");
    let names = |key: &str, field: &str| -> Vec<(String, String)> {
        contract
            .get(key)
            .and_then(Value::as_array)
            .expect("list present")
            .iter()
            .map(|m| {
                let get = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (get("name"), get(field))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end", "unit"), own(END_TO_END));
    assert_eq!(names("per_layer", "unit"), own(PER_LAYER));
    let workloads: Vec<(String, String)> = workloads::all()
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(names("workloads", "why"), workloads);
    assert_eq!(
        contract.get("run_seconds").and_then(Value::as_f64),
        Some(workloads::RUN_SECONDS)
    );
    for m in contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("list present")
    {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    for w in workloads::all() {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
    }
}
