//! `BENCHMARK.json` and the ledger's one Rust table must not diverge, and
//! the file must stay inside the limits the benchmark contract sets.

use serde_json::Value;
use std::process::Command;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn committed() -> String {
    std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json sits at the repository root")
}

#[test]
fn committed_file_is_rendered_from_the_table() {
    let rendered = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .arg("--benchmark-json")
        .output()
        .expect("ledger starts");
    assert!(rendered.status.success());
    assert_eq!(
        String::from_utf8_lossy(&rendered.stdout),
        committed(),
        "regenerate with `ledger --benchmark-json > BENCHMARK.json`"
    );
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    let mut keys: Vec<&str> = v
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn committed_file_meets_the_contract() {
    let text = committed();
    assert!(text.len() <= 64 * 1024);
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("a list")
            .clone()
    };
    let text_of = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .expect("text")
            .to_string()
    };

    assert!((1..=60).contains(
        &doc.get("run_seconds")
            .and_then(Value::as_u64)
            .expect("seconds")
    ));
    let command = list("command");
    assert!(command.len() <= 32);
    assert!(command.iter().all(|c| c
        .as_str()
        .is_some_and(|c| c.len() <= 200 && !c.starts_with('/'))));
    assert_eq!(list("paths").len(), 1);

    let mut names = Vec::new();
    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        names.push(text_of(w, "name"));
    }
    let end_to_end = list("end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for e in &end_to_end {
        assert_eq!(keys(e), ["better", "bound", "name", "unit"]);
        let bound = e.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
        names.push(text_of(e, "name"));
    }
    let setup = end_to_end
        .iter()
        .find(|e| text_of(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(text_of(setup, "unit"), "s");
    assert_eq!(text_of(setup, "better"), "lower");
    let per_layer = list("per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for p in &per_layer {
        assert_eq!(keys(p), ["better", "name", "unit"]);
        names.push(text_of(p, "name"));
    }
    for metric in end_to_end.iter().chain(&per_layer) {
        assert!(is_unit(&text_of(metric, "unit")), "{metric}");
        assert!(["higher", "lower"].contains(&text_of(metric, "better").as_str()));
    }
    for name in &names {
        assert!(is_name(name), "{name}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}
