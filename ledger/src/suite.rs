//! `--all` and `--sets N`: the whole suite, one child process per run (so
//! `peak_rss_mb` is per workload), and the self-agreement check between
//! back-to-back sets of runs of the same code.

use crate::bench::median;
use crate::table::{END_TO_END, SETUP_FLOOR_S, WORKLOADS};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Runs of each workload in one set of `--sets`, each with another seed; a
/// set's value of a metric is their median, as the benchmark driver takes
/// the median of its ten. One run per workload cannot agree with another
/// within the bounds reliably: `peak_rss_mb` of the two-thread
/// `campaign_cold` alone has modes 15 % and 29 % above its usual value.
const RUNS_PER_SET: u64 = 3;

/// What the runs of one workload reported: their end-to-end (or per-layer)
/// metric values, the median over the runs, and their exact fingerprints.
struct Reported {
    metrics: BTreeMap<String, f64>,
    fingerprints: String,
}

/// Runs one workload in a child process, forwards its two output lines and
/// parses them. `None` when the child failed or printed something else.
fn run_child(args: &Args, workload: &str, seed: u64) -> Option<Reported> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().expect("own executable starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return None;
    }
    let mut lines = stdout.lines().rev();
    let result = serde_json::parse_value(lines.next()?).ok()?;
    let report = serde_json::parse_value(lines.next()?).ok()?;
    let metrics = result
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(Reported {
        metrics,
        fingerprints: report.get("fingerprints")?.to_string(),
    })
}

/// `runs` runs of one workload with seeds `--seed`, `--seed + 1`, …, folded
/// into the median of each metric and the fingerprints of all of them.
fn run_children(args: &Args, workload: &str, runs: u64) -> Option<Reported> {
    let each: Vec<Reported> = (0..runs)
        .map(|i| run_child(args, workload, args.seed.wrapping_add(i)))
        .collect::<Option<_>>()?;
    let metrics = each[0]
        .metrics
        .keys()
        .map(|name| {
            let values: Vec<f64> = each.iter().map(|r| r.metrics[name]).collect();
            (name.clone(), median(&values))
        })
        .collect();
    let fingerprints: Vec<&str> = each.iter().map(|r| r.fingerprints.as_str()).collect();
    Some(Reported {
        metrics,
        fingerprints: fingerprints.join(" "),
    })
}

/// Compares two sets of the suite: every (end-to-end metric, workload) pair
/// must agree within the metric's bound and every fingerprint exactly.
fn agree(first: &[Reported], second: &[Reported]) -> bool {
    let mut all_inside = true;
    for ((workload, a), b) in WORKLOADS.iter().zip(first).zip(second) {
        let same = a.fingerprints == b.fingerprints;
        all_inside &= same;
        println!(
            "{{\"workload\": \"{}\", \"fingerprints_equal\": {same}}}",
            workload.name
        );
        for metric in &END_TO_END {
            let (x, y) = (a.metrics[metric.name], b.metrics[metric.name]);
            let diff = (y - x) / x;
            let inside = diff.abs() <= metric.bound
                || (metric.name == "setup_s" && (y - x).abs() < SETUP_FLOOR_S);
            all_inside &= inside;
            println!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"first\": {x}, \"second\": {y}, \"relative_difference\": {diff}, \"bound\": {}, \"inside\": {inside}}}",
                workload.name, metric.name, metric.bound
            );
        }
    }
    all_inside
}

pub fn run(args: &Args) -> ExitCode {
    if args.sets > 1 && args.traced {
        eprintln!("ledger: --sets compares end-to-end metrics; run it with --trace 0");
        return ExitCode::from(2);
    }
    let runs = if args.sets > 1 { RUNS_PER_SET } else { 1 };
    let mut sets: Vec<Vec<Reported>> = Vec::new();
    let mut ok = true;
    for _ in 0..args.sets {
        let reports: Vec<Option<Reported>> = WORKLOADS
            .iter()
            .map(|w| run_children(args, w.name, runs))
            .collect();
        match reports.into_iter().collect::<Option<Vec<_>>>() {
            Some(set) => sets.push(set),
            None => ok = false,
        }
    }
    if ok {
        for pair in sets.windows(2) {
            ok &= agree(&pair[0], &pair[1]);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
