//! Runs the benchmark in `--smoke` mode (one repetition per workload) and
//! checks its output against `BENCHMARK.json`: every workload reports every
//! registered metric under a well-formed name, and every output is correct.

#[path = "../src/json.rs"]
#[allow(dead_code)] // the binary uses more of the reader than this test
mod json;

use json::Value;
use std::process::Command;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `(name, unit)` pairs under `key` (no unit for a workload).
fn entries(manifest: &Value, key: &str) -> Vec<(String, String)> {
    let text = |entry: &Value, field: &str| {
        entry
            .get(field)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    manifest
        .get(key)
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|entry| (text(entry, "name"), text(entry, "unit")))
        .collect()
}

#[test]
fn smoke_run_prints_every_registered_metric() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json is readable");
    let manifest = json::parse(&manifest).expect("BENCHMARK.json parses");
    let workloads = entries(&manifest, "workloads");
    let mut metrics = entries(&manifest, "end_to_end");
    metrics.extend(entries(&manifest, "per_layer"));
    assert!(workloads.len() >= 2 && !metrics.is_empty());
    for (name, _) in workloads.iter().chain(&metrics) {
        assert!(well_formed(name), "`{name}` is not [A-Za-z0-9_.-]+");
    }

    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );

    let results: Vec<Value> = stdout
        .lines()
        .filter(|line| line.starts_with("{\"correct\""))
        .map(|line| json::parse(line).expect("a result line is JSON"))
        .collect();
    assert_eq!(results.len(), workloads.len(), "one result per workload");
    for ((workload, _), result) in workloads.iter().zip(&results) {
        assert!(
            stdout.contains(&format!("== {workload} ")),
            "{workload} did not run"
        );
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
        let reported = result.get("metrics").expect("metrics");
        for (metric, unit) in &metrics {
            let entry = reported
                .get(metric)
                .unwrap_or_else(|| panic!("{workload} does not report `{metric}`"));
            let value = entry.get("value").and_then(Value::as_f64).expect("a value");
            assert!(value.is_finite(), "{workload} {metric} = {value}");
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(unit.as_str())
            );
        }
    }
}
