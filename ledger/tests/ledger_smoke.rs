//! Every workload at `--smoke` size (every input ÷ 20, two repetitions):
//! it runs, every named metric is present, finite and carries its unit,
//! every correctness check passes, the traced runs record spans in every
//! layer, a flipped check fails the command, and nothing is left behind.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output, Stdio};

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is text in {v}"))
        .to_string()
}

/// The `(name, unit)` pairs (`(name, why)` for workloads) under `key`.
fn named(key: &str, second: &str) -> Vec<(String, String)> {
    let file = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json is committed");
    let doc = serde_json::parse_value(&file).expect("BENCHMARK.json parses");
    let list = doc.get(key).and_then(Value::as_array).expect("a list");
    list.iter()
        .map(|m| (text(m, "name"), text(m, second)))
        .collect()
}

fn ledger(workload: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--seed", "7", "--smoke"])
        .args(extra)
        .output()
        .expect("ledger starts")
}

/// The report line and the result line of a run.
fn last_two_lines(output: &Output) -> (Value, Value) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut rev = stdout.lines().rev();
    let mut next = || {
        let line = rev.next().expect("two output lines");
        serde_json::parse_value(line).expect("a JSON line")
    };
    let result = next();
    (next(), result)
}

fn run_ok(workload: &str, trace: &str) -> (Value, Value) {
    let output = ledger(workload, &["--trace", trace]);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    last_two_lines(&output)
}

fn check_result(workload: &str, result: &Value, expected: &[(String, String)]) {
    let mut keys: Vec<&String> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k)
        .collect();
    keys.sort_unstable();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").map(Value::to_string).as_deref(),
        Some("true")
    );
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} is missing"));
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
        assert_eq!(text(metric, "unit"), *unit, "{workload}: {name}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let end_to_end = named("end_to_end", "unit");
    for (workload, _) in named("workloads", "why") {
        let (report, result) = run_ok(&workload, "0");
        check_result(&workload, &result, &end_to_end);
        let metrics = result.get("metrics").expect("metrics");
        for (name, _) in &end_to_end {
            let value = metrics.get(name).and_then(|m| m.get("value"));
            assert!(
                value.and_then(Value::as_f64) > Some(0.0),
                "{workload}: {name} must never be 0"
            );
        }
        assert_eq!(report.get("repetitions").and_then(Value::as_u64), Some(2));
        let fingerprints = report.get("fingerprints").and_then(Value::as_object);
        if workload != "serve_mix" {
            assert_eq!(fingerprints.map(|f| f.len()), Some(1), "{workload}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_span_every_layer() {
    let per_layer = named("per_layer", "unit");
    let mut layers = BTreeSet::new();
    for (workload, _) in named("workloads", "why") {
        let (report, result) = run_ok(&workload, "1");
        check_result(&workload, &result, &per_layer);
        let spans = result
            .get("metrics")
            .and_then(|m| m.get("trace.spans"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert!(spans > Some(0.0), "{workload}: trace.spans = {spans:?}");
        let spanned = report.get("span_layers").and_then(Value::as_array);
        for layer in spanned.expect("span_layers") {
            layers.insert(layer.as_str().expect("a layer name").to_string());
        }
    }
    for layer in [
        "dram",
        "core",
        "cpu",
        "workloads",
        "sim",
        "campaign",
        "serve",
    ] {
        assert!(
            layers.contains(layer),
            "no span in layer {layer}: {layers:?}"
        );
    }
}

#[test]
fn a_flipped_check_fails_the_command() {
    for workload in ["sim_low_mpki", "serve_mix"] {
        let output = ledger(workload, &["--trace", "0", "--flip-check"]);
        assert_eq!(output.status.code(), Some(1), "{workload}");
        let (_, result) = last_two_lines(&output);
        assert_eq!(
            result.get("correct").map(Value::to_string).as_deref(),
            Some("false")
        );
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(1));
    }
}

#[test]
fn unknown_arguments_are_refused() {
    let output = ledger("no_such_workload", &[]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

#[test]
fn runs_leave_no_scratch_directory_behind() {
    let beside = Path::new(env!("CARGO_BIN_EXE_ledger"))
        .parent()
        .expect("the executable has a directory");
    // Also after a failed check.
    for (args, code) in [(&["--flip-check"][..], 1), (&[][..], 0)] {
        let child = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args(["--workload", "serve_mix", "--smoke"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("ledger starts");
        let scratch = beside.join(format!("dsarp-ledger-{}", child.id()));
        let output = child.wait_with_output().expect("ledger ends");
        assert_eq!(output.status.code(), Some(code));
        assert!(!scratch.exists(), "{} was left behind", scratch.display());
    }
}
