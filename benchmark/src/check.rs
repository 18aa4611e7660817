//! `--check A.json B.json`: is B worse than A by more than the bounds in
//! `BENCHMARK.json` allow, per (metric, workload)?

use std::path::Path;

use crate::json::{self, Value};

/// One end-to-end metric of the contract.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(contract: &Value) -> Result<Vec<Bound>, String> {
    contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

fn metric(result: &Value, workload: &str, name: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compare result files `a` (baseline) and `b`; exit code 0 when every
/// end-to-end metric of every workload is within its bound and both files
/// report correct runs, 1 otherwise.
pub fn run(contract: &Path, a: &Path, b: &Path) -> Result<i32, String> {
    let bounds = bounds(&load(contract)?)?;
    let (a, b) = (load(a)?, load(b)?);
    let workloads: Vec<String> = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("the baseline file has no workloads")?
        .keys()
        .cloned()
        .collect();
    let mut violations = 0;
    println!(
        "{:<20} {:<30} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for workload in &workloads {
        for side in [&a, &b] {
            if side
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("correct"))
                != Some(&Value::Bool(true))
            {
                println!("{workload:<20} a run is missing or not correct  VIOLATION");
                violations += 1;
            }
        }
        for bound in &bounds {
            let (Some(va), Some(vb)) = (
                metric(&a, workload, &bound.name),
                metric(&b, workload, &bound.name),
            ) else {
                continue; // traced result files carry no end-to-end metrics
            };
            let worse = worsening(va, vb, bound.higher_is_better);
            let violated = worse > bound.bound;
            violations += usize::from(violated);
            println!(
                "{workload:<20} {:<30} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%{}",
                bound.name,
                worse * 100.0,
                bound.bound * 100.0,
                if violated { "  VIOLATION" } else { "" }
            );
        }
    }
    println!("{violations} violation(s)");
    Ok(if violations == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, false) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
        assert_eq!(worsening(0.0, 1.0, false), f64::INFINITY);
    }
}
