//! The perf ledger: six named workloads, four end-to-end metrics and a
//! traced per-layer breakdown for the DSARP simulator and the campaign
//! machinery around it. See `ledger/README.md`.
//!
//! ```text
//! ledger --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! ledger --all | --sets N     (one child process per workload)
//! ledger --benchmark-json     (prints BENCHMARK.json from the table)
//! ```

mod bench;
mod campaign;
mod serve;
mod sim;
mod suite;
mod table;
mod trace;

use bench::{quartiles, Checks, Ctx, Outcome, Scratch};
use std::process::ExitCode;

/// One invocation, as parsed from the command line.
pub struct Args {
    pub workload: Option<String>,
    pub all: bool,
    pub sets: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub flip_check: bool,
    pub benchmark_json: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("ledger: {problem}");
    eprintln!(
        "usage: ledger (--workload NAME | --all | --sets N | --benchmark-json) \
         [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--flip-check]"
    );
    let names: Vec<&str> = table::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    std::process::exit(2)
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        all: false,
        sets: 1,
        seed: bench::DEFAULT_SEED,
        seconds: table::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        flip_check: false,
        benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")),
            "--all" => args.all = true,
            "--sets" => {
                let v = value("a count");
                args.sets = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage(&format!("bad --sets `{v}`")));
                args.all = true;
            }
            "--seed" => {
                let v = value("a number");
                args.seed = parse_u64(&v).unwrap_or_else(|| usage(&format!("bad --seed `{v}`")));
            }
            "--seconds" => {
                let v = value("a number");
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage(&format!("bad --seconds `{v}`")));
            }
            "--trace" => {
                args.traced = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    v => usage(&format!("bad --trace `{v}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--flip-check" => args.flip_check = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    args
}

fn num(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v}")
}

/// `{"value": v, "unit": "u"}` entries keyed by metric name.
fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The end-to-end metrics of one untraced run, in table order, each with
/// its per-repetition samples.
fn end_to_end(out: &Outcome) -> Vec<(&'static table::EndToEnd, Vec<f64>)> {
    let throughput: Vec<f64> = out.timed_s.iter().map(|s| out.work_per_rep / s).collect();
    let op_us: Vec<f64> = if out.op_us.is_empty() {
        out.timed_s.iter().map(|s| s * 1e6).collect()
    } else {
        out.op_us.clone()
    };
    let values = [
        throughput,
        op_us,
        vec![bench::peak_rss_mb()],
        out.setup_s.clone(),
    ];
    table::END_TO_END.iter().zip(values).collect()
}

/// The sample of the least disturbed repetition. Interference from the
/// host only ever slows a repetition down, so the best one is the steadiest
/// estimate of what the code costs: with CPU hogs switched on and off
/// beside `sim_high_mpki`, ten runs' medians spread by 14 % and their best
/// repetitions by 1.7 %.
fn best(metric: &table::EndToEnd, samples: &[f64]) -> f64 {
    let pick = match metric.better {
        table::Better::Higher => f64::max,
        table::Better::Lower => f64::min,
    };
    samples.iter().copied().reduce(pick).expect("no samples")
}

/// One report: the detail that goes into the report line, and the metrics
/// of the result line.
type Report = (String, Vec<(&'static str, &'static str, f64)>);

/// The traced run's report: every per-layer metric (0 where the workload
/// does not exercise the layer), and the span file written beside them.
fn per_layer_report(name: &str, out: &mut Outcome, tracer: &trace::Tracer) -> Report {
    out.layer.insert("trace.spans", tracer.span_count() as f64);
    let metrics: Vec<(&str, &str, f64)> = table::PER_LAYER
        .iter()
        .map(|p| {
            let measured = p.measured.contains(&name);
            let v = out.layer.get(p.name).copied();
            assert_eq!(
                measured,
                v.is_some(),
                "{}: table and {name} driver disagree",
                p.name
            );
            (p.name, p.unit, v.unwrap_or(0.0))
        })
        .collect();
    // The span file repeats each metric beside what it should move.
    let tagged: Vec<String> = table::PER_LAYER
        .iter()
        .zip(&metrics)
        .map(|(p, (_, _, v))| {
            format!(
                "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"should_move\": \"{}\", \"on\": {:?}}}",
                p.name,
                num(*v),
                p.unit,
                p.moves,
                p.on
            )
        })
        .collect();
    match bench::write_trace(name, tracer, &format!("[\n{}\n]", tagged.join(",\n"))) {
        Ok(path) => eprintln!("ledger: spans written to {}", path.display()),
        Err(e) => eprintln!("ledger: could not write the span file: {e}"),
    }
    let layers: Vec<String> = tracer.layers().iter().map(|l| format!("\"{l}\"")).collect();
    (format!("\"span_layers\": [{}]", layers.join(", ")), metrics)
}

/// The untraced run's report: every end-to-end metric at its best
/// repetition, with median, quartiles and sample count beside it.
fn end_to_end_report(out: &Outcome) -> Report {
    let samples = end_to_end(out);
    let detail: Vec<String> = samples
        .iter()
        .map(|(e, v)| {
            let (q1, med, q3) = quartiles(v);
            format!(
                "\"{}\": {{\"unit\": \"{}\", \"best\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                e.name,
                e.unit,
                num(best(e, v)),
                num(med),
                num(q1),
                num(q3),
                v.len()
            )
        })
        .collect();
    let metrics = samples
        .iter()
        .map(|(e, v)| (e.name, e.unit, best(e, v)))
        .collect();
    (
        format!("\"end_to_end\": {{{}}}", detail.join(", ")),
        metrics,
    )
}

fn run_workload(args: &Args, name: &str) -> ExitCode {
    if !table::WORKLOADS.iter().any(|w| w.name == name) {
        usage(&format!("unknown workload `{name}`"));
    }
    let scratch = Scratch::create();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced: args.traced,
        scratch: scratch.0.clone(),
    };
    let mut checks = Checks {
        flip_first: args.flip_check,
        ..Checks::default()
    };
    let tracer = trace::Tracer::new(false);
    let mut out = match name {
        "campaign_cold" | "campaign_warm" => campaign::run(&ctx, name, &mut checks, &tracer),
        "serve_mix" => serve::run(&ctx, &mut checks, &tracer),
        _ => sim::run(&ctx, name, &mut checks, &tracer),
    };
    // Remove every store, export and lock file before reporting, whether or
    // not a check failed.
    drop(scratch);

    let fingerprints: Vec<String> = out
        .fingerprints
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let (detail, metrics) = if args.traced {
        per_layer_report(name, &mut out, &tracer)
    } else {
        end_to_end_report(&out)
    };
    for message in &checks.messages {
        eprintln!("ledger: {name}: check failed: {message}");
    }
    println!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"traced\": {}, \"repetitions\": {}, \"threads\": {}, \"fingerprints\": {{{}}}, {detail}}}",
        args.seed,
        args.traced,
        out.timed_s.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        fingerprints.join(", "),
    );
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted,
        checks.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.benchmark_json {
        print!("{}", table::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.all {
        return suite::run(&args);
    }
    match &args.workload {
        Some(name) => run_workload(&args, name),
        None => usage("give --workload, --all, --sets or --benchmark-json"),
    }
}
