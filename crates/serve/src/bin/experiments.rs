//! Regenerates every table and figure of the paper's evaluation through
//! the campaign engine: all runs are content-addressed, cached under the
//! campaign store, and resumable — re-running reuses every completed cell.
//!
//! ```text
//! experiments [run]     [--scale quick|full] [--cycles N] [--per-category N]
//!                       [--threads N] [--out DIR] [--campaign DIR] [--fresh]
//!                       [--exp NAME] [--spec FILE.json] [--emit-spec FILE]
//!                       [--traces DIR [--trace-cores N] [--trace-glob G]]
//!                       [--events FILE.jsonl] [--telemetry] [--no-skip-ahead]
//! experiments worker    (--campaign DIR | --store-url URL)
//!                       [--spec FILE | --traces DIR]
//!                       [--owner ID] [--ttl-ms N] [--poll-ms N]
//!                       [--threads N] [--exp NAME] [--events FILE.jsonl]
//! experiments merge     (--campaign DIR | --store-url URL)
//!                       [--spec FILE | --traces DIR] [... run flags]
//! experiments status    [--campaign DIR] [--spec FILE | --traces DIR]
//! experiments compact   --campaign DIR [--spec FILE | --traces DIR]
//! experiments serve     [--listen ADDR] [--campaign DIR]
//!                       [--spec FILE | --traces DIR]
//! experiments trace-capture --traces DIR [--count N] [--trace-cores N]
//!                       [--ops N] [--seed N] [--format text|text-ext|bin]
//! experiments trace-convert --from FILE --to FILE [--format text|text-ext|bin]
//! ```
//!
//! * `run` (default): single-process execution plus artifact reduction.
//! * `worker`: leases shards of the missing-job set via `shard-NN.lock`
//!   files, simulates only leased cells, and exits once the campaign is
//!   drained (by itself and/or other workers). Run N of these — across
//!   processes or hosts sharing the store directory — to distribute one
//!   campaign.
//! * `merge`: the coordinator — waits for leases to drain, reclaims dead
//!   workers' unfinished cells (re-running them locally), then reduces
//!   tables/figures exactly as `run` does, byte-identically.
//! * `status`: one-shot progress table — per-shard done/missing cell
//!   counts against the spec plus the current lease holders (live or
//!   stale). Read-only; safe to run while workers drain. For a campaign
//!   behind `experiments serve`, scrape `GET /status` instead.
//! * `compact`: rewrites shards keeping only fingerprints reachable from
//!   the spec, dropping orphaned records, duplicate appends and torn lines.
//! * `serve`: hosts the campaign store over HTTP (prints the URL on the
//!   first stdout line), so `worker --store-url URL` and
//!   `merge --store-url URL` distribute the campaign across hosts with no
//!   shared filesystem — leases, dedup and crash reclaim work exactly as
//!   they do against a shared `--campaign DIR`. See the README's
//!   "Campaign server" section for the endpoint table.
//! * `trace-capture`: records synthetic memory-intensive mixes as a
//!   directory of trace files (one file per workload per core), so users
//!   and CI can self-generate trace suites to sweep. `--format` picks the
//!   encoding: plain Ramulator `text` (default, lossy for store bubbles
//!   and load dependence), the lossless `text-ext` dialect, or the
//!   lossless binary `bin` (`.dtrace`) — see the README's trace dialect
//!   spec.
//! * `trace-convert`: re-encodes one trace file between dialects
//!   (`--from FILE --to FILE`). The target dialect is inferred from the
//!   `--to` extension (`.dtrace` means `bin`, anything else `text-ext`)
//!   unless `--format` says otherwise. Conversions between the lossless
//!   dialects round-trip byte-stably.
//! * `--traces DIR` sweeps a directory of captured traces instead of the
//!   built-in paper campaign: file names matching `--trace-glob` (default
//!   `*.trace`; use `*.dtrace` for binary suites) are sorted and bundled
//!   `--trace-cores` (default 1) at a time, and each file's content hash
//!   feeds the job fingerprints, so editing a trace re-simulates exactly
//!   its own cells. The sweep runs `REFab`/`REFpb`/`DSARP` at 32 Gb;
//!   `--emit-spec` the spec and edit it for other axes.
//! * `--spec FILE.json` executes a serialized [`CampaignSpec`] instead of
//!   the built-in paper campaign (no recompilation for new sweeps);
//!   `--emit-spec FILE` dumps the built-in (or `--traces`) spec as a
//!   starting point.
//! * `--events FILE.jsonl` appends one structured JSON event per campaign
//!   progress step (planning, per-job simulation, lease churn, remote
//!   retries) to `FILE.jsonl` — see the README's "Observability" section
//!   for the schema. Console output is unchanged.
//! * `--telemetry` (run only) additionally samples per-bank simulator
//!   telemetry and writes one sidecar JSON per simulated cell under
//!   `<store>/telemetry/<fingerprint>.json`. Shard records and grids are
//!   byte-identical with or without it.
//! * `--no-skip-ahead` (run only) forces per-cycle stepping
//!   ([`dsarp_sim::System::run_per_cycle`]) instead of the event-driven
//!   skip-ahead loop. Every record, grid and telemetry sidecar is
//!   byte-identical either way (the simulator's exactness guarantee);
//!   the flag exists to demonstrate that and to isolate the skip-ahead
//!   engine when debugging. Wall time is the only difference.
//!
//! Outputs one CSV per artifact under `--out` (default `results/`), a
//! combined `EXPERIMENTS_RAW.md`, and `campaign_report.json` with cache
//! statistics. The result store lives under `--campaign` (default
//! `.campaign/`); `--fresh` wipes it first.

use dsarp_campaign::store::SHARDS;
use dsarp_campaign::{
    export, lease, paper, traces, Campaign, CampaignClient, CampaignPlan, CampaignReport,
    CampaignSpec, Event, EventLog, LocalBackend, RemoteStore, Store, StoreBackend, SweepSpec,
    WorkerOptions, WorkloadSet,
};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::{
    harness::{Scale, WORKLOAD_SEED},
    report,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Run,
    Worker,
    Merge,
    Status,
    Compact,
    Serve,
    TraceCapture,
    TraceConvert,
}

const SUBCOMMANDS: [(&str, Cmd); 8] = [
    ("run", Cmd::Run),
    ("worker", Cmd::Worker),
    ("merge", Cmd::Merge),
    ("status", Cmd::Status),
    ("compact", Cmd::Compact),
    ("serve", Cmd::Serve),
    ("trace-capture", Cmd::TraceCapture),
    ("trace-convert", Cmd::TraceConvert),
];

/// CLI refusal: a named offending token and a nonzero exit, without the
/// panic machinery (no backtrace advice for a usage error).
fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// An environmental failure (dead server, unwritable path, full disk) is
/// refused the same way — `error: cannot <what> <path|url>: <cause>`,
/// exit 2 — instead of unwinding with a backtrace.
trait OrDie<T> {
    fn or_die(self, what: &str, at: impl std::fmt::Display) -> T;
}

impl<T, E: std::fmt::Display> OrDie<T> for Result<T, E> {
    fn or_die(self, what: &str, at: impl std::fmt::Display) -> T {
        self.unwrap_or_else(|e| die(&format!("cannot {what} {at}: {e}")))
    }
}

const OPEN_STORE: &str = "open campaign store";
const WRITE_OUT: &str = "write results under --out";

struct Args {
    cmd: Cmd,
    scale: Scale,
    out: PathBuf,
    campaign_dir: PathBuf,
    fresh: bool,
    only: Option<String>,
    spec_file: Option<PathBuf>,
    emit_spec: Option<PathBuf>,
    owner: Option<String>,
    ttl_ms: u64,
    poll_ms: u64,
    /// Remote campaign store (worker/merge): talk to an `experiments
    /// serve` instance instead of a shared `--campaign` directory.
    store_url: Option<String>,
    /// `serve` bind address (default `127.0.0.1:0`).
    listen: Option<String>,
    /// Explicit scale overrides, applied to `--spec` files too.
    cycles: Option<u64>,
    per_category: Option<usize>,
    threads: Option<usize>,
    /// Whether `--scale` was passed explicitly (invalid with `--spec`,
    /// whose file carries its own scale).
    scale_set: bool,
    /// Trace directory: capture target for `trace-capture`, sweep source
    /// otherwise.
    traces: Option<PathBuf>,
    trace_cores: usize,
    trace_glob: String,
    /// `trace-capture` knobs.
    capture_count: usize,
    capture_ops: usize,
    capture_seed: u64,
    capture_knobs_set: bool,
    /// Trace encoding for `trace-capture` / `trace-convert` (`--format`).
    trace_format: Option<dsarp_cpu::TraceDialect>,
    /// `trace-convert` source and destination files.
    convert_from: Option<PathBuf>,
    convert_to: Option<PathBuf>,
    /// Structured JSONL event log destination (`--events FILE`).
    events: Option<PathBuf>,
    /// Per-cell simulator telemetry sidecars (`--telemetry`, run only).
    telemetry: bool,
    /// Force per-cycle stepping (`--no-skip-ahead`, run only).
    per_cycle: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            cmd: Cmd::Run,
            scale: Scale::full(),
            out: PathBuf::from("results"),
            campaign_dir: PathBuf::from(".campaign"),
            fresh: false,
            only: None,
            spec_file: None,
            emit_spec: None,
            owner: None,
            ttl_ms: lease::DEFAULT_TTL_MS,
            poll_ms: 500,
            store_url: None,
            listen: None,
            cycles: None,
            per_category: None,
            threads: None,
            scale_set: false,
            traces: None,
            trace_cores: 1,
            trace_glob: String::from("*.trace"),
            capture_count: 4,
            capture_ops: 50_000,
            // The paper SimConfig's seed: captured entries are the exact
            // streams the synthetic default sweeps generate. (The text
            // format itself is lossy for store bubbles and load
            // dependence, so replay is bit-exact only for loads-only
            // streams — see the README.)
            capture_seed: 0xD5A2_2014,
            capture_knobs_set: false,
            trace_format: None,
            convert_from: None,
            convert_to: None,
            events: None,
            telemetry: false,
            per_cycle: false,
        }
    }
}

impl Args {
    /// `scale` with the explicit `--cycles`/`--per-category`/`--threads`
    /// applied on top (of the `--scale` preset, or of a `--spec` file's).
    fn with_scale_overrides(&self, mut scale: Scale) -> Scale {
        scale.dram_cycles = self.cycles.unwrap_or(scale.dram_cycles);
        scale.per_category = self.per_category.unwrap_or(scale.per_category);
        self.threads.map_or(scale, |t| scale.with_threads(t))
    }
}

fn parse_args() -> Args {
    // `--cycles`/`--per-category`/`--threads` are applied to the scale
    // after the loop, so `--cycles 4000 --scale quick` and `--scale quick
    // --cycles 4000` mean the same thing.
    let mut args = Args::default();
    let mut campaign_set = false;
    let mut trace_knobs_set = false;
    // Flags that only make sense for simulation-running subcommands; a
    // trace-capture passing one must refuse, not look configured.
    let mut run_only_flags: Vec<&'static str> = Vec::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    args.cmd = match argv.first() {
        Some(word) if !word.starts_with("--") => {
            i += 1;
            let known = SUBCOMMANDS.iter().find(|(name, _)| name == word);
            known.map(|(_, cmd)| *cmd).unwrap_or_else(|| {
                let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
                die(&format!(
                    "unknown subcommand `{word}` ({})",
                    names.join("|")
                ))
            })
        }
        _ => Cmd::Run,
    };
    fn num<T: std::str::FromStr>(flag: &str, value: String) -> T {
        value
            .parse()
            .unwrap_or_else(|_| die(&format!("{flag}: `{value}` is not a valid number")))
    }
    while i < argv.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i)
                .unwrap_or_else(|| die(&format!("missing value for {}", argv[*i - 1])))
                .clone()
        };
        match argv[i].as_str() {
            "--scale" => {
                args.scale_set = true;
                args.scale = match next(&mut i).as_str() {
                    "quick" => Scale::quick(),
                    "full" => Scale::full(),
                    other => die(&format!("unknown scale `{other}`")),
                }
            }
            "--cycles" => args.cycles = Some(num("--cycles", next(&mut i))),
            "--per-category" => args.per_category = Some(num("--per-category", next(&mut i))),
            "--threads" => args.threads = Some(num("--threads", next(&mut i))),
            "--out" => {
                run_only_flags.push("--out");
                args.out = PathBuf::from(next(&mut i));
            }
            "--campaign" => {
                run_only_flags.push("--campaign");
                campaign_set = true;
                args.campaign_dir = PathBuf::from(next(&mut i));
            }
            "--store-url" => args.store_url = Some(next(&mut i)),
            "--listen" => args.listen = Some(next(&mut i)),
            "--fresh" => args.fresh = true,
            "--exp" => args.only = Some(next(&mut i)),
            "--spec" => args.spec_file = Some(PathBuf::from(next(&mut i))),
            "--emit-spec" => args.emit_spec = Some(PathBuf::from(next(&mut i))),
            "--owner" => {
                run_only_flags.push("--owner");
                args.owner = Some(next(&mut i));
            }
            "--ttl-ms" => {
                run_only_flags.push("--ttl-ms");
                args.ttl_ms = num("--ttl-ms", next(&mut i));
            }
            "--poll-ms" => {
                run_only_flags.push("--poll-ms");
                args.poll_ms = num("--poll-ms", next(&mut i));
            }
            "--events" => {
                run_only_flags.push("--events");
                args.events = Some(PathBuf::from(next(&mut i)));
            }
            "--telemetry" => {
                run_only_flags.push("--telemetry");
                args.telemetry = true;
            }
            "--no-skip-ahead" => {
                run_only_flags.push("--no-skip-ahead");
                args.per_cycle = true;
            }
            "--traces" => args.traces = Some(PathBuf::from(next(&mut i))),
            "--trace-cores" => {
                trace_knobs_set = true;
                args.trace_cores = num("--trace-cores", next(&mut i));
            }
            "--trace-glob" => {
                trace_knobs_set = true;
                run_only_flags.push("--trace-glob");
                args.trace_glob = next(&mut i);
            }
            "--count" => {
                args.capture_knobs_set = true;
                args.capture_count = num("--count", next(&mut i));
            }
            "--ops" => {
                args.capture_knobs_set = true;
                args.capture_ops = num("--ops", next(&mut i));
            }
            "--seed" => {
                args.capture_knobs_set = true;
                args.capture_seed = num("--seed", next(&mut i));
            }
            "--format" => {
                let value = next(&mut i);
                args.trace_format =
                    Some(dsarp_cpu::TraceDialect::parse(&value).unwrap_or_else(|| {
                        die(&format!("unknown --format `{value}` (text|text-ext|bin)"))
                    }));
            }
            "--from" => args.convert_from = Some(PathBuf::from(next(&mut i))),
            "--to" => args.convert_to = Some(PathBuf::from(next(&mut i))),
            other => die(&format!("unknown argument `{other}` (see the module docs)")),
        }
        i += 1;
    }
    // Mode-invalid combinations refuse up front, naming the offending
    // flag: a silently ignored `--store-url` would run against the local
    // directory while the user believes the server is in the loop.
    let cmd = args.cmd;
    if args.store_url.is_some() {
        if !matches!(cmd, Cmd::Worker | Cmd::Merge) {
            let name = SUBCOMMANDS
                .iter()
                .find(|(_, c)| *c == cmd)
                .expect("listed")
                .0;
            die(&format!(
                "--store-url applies to worker/merge only, not `{name}` \
                 (run `experiments serve` on the host that owns the store; \
                 its GET /status endpoint replaces `status`)"
            ));
        }
        if campaign_set {
            die("--campaign conflicts with --store-url (the server owns the store directory)");
        }
        if args.fresh {
            die("--fresh conflicts with --store-url (wipe the store on the serving host)");
        }
    }
    if args.listen.is_some() && cmd != Cmd::Serve {
        die("--listen applies to `serve` only");
    }
    if args.telemetry && cmd != Cmd::Run {
        die("--telemetry applies to `run` only (sidecars are written by the local executor)");
    }
    if args.per_cycle && cmd != Cmd::Run {
        die(
            "--no-skip-ahead applies to `run` only (workers always use the default loop; \
             results are identical by the exactness guarantee)",
        );
    }
    if args.events.is_some() && !matches!(cmd, Cmd::Run | Cmd::Worker | Cmd::Merge) {
        die("--events applies to run/worker/merge (the simulating subcommands)");
    }
    if args.fresh && matches!(cmd, Cmd::Worker | Cmd::Merge) {
        die("--fresh would wipe records other workers are producing; use it with `run`");
    }
    if cmd == Cmd::Serve && args.fresh {
        die("--fresh conflicts with serve (wipe the store before starting the server)");
    }
    args.scale = args.with_scale_overrides(args.scale);
    let scale_knobs_set = args.scale_set
        || args.cycles.is_some()
        || args.per_category.is_some()
        || args.threads.is_some();
    // Silently ignored flags must refuse, not look configured.
    if args.traces.is_none() && trace_knobs_set {
        die(
            "--trace-cores/--trace-glob configure a --traces DIR sweep (or trace-capture); \
             pass --traces too",
        );
    }
    if cmd == Cmd::TraceCapture {
        if scale_knobs_set {
            die(
                "--scale/--cycles/--per-category/--threads configure simulation runs; \
                 trace-capture only takes --traces/--count/--trace-cores/--ops/--seed/--format",
            );
        }
        if !run_only_flags.is_empty() {
            die(&format!(
                "{} configure simulation runs and are ignored by trace-capture \
                 (it only takes --traces/--count/--trace-cores/--ops/--seed/--format)",
                run_only_flags.join("/")
            ));
        }
    }
    if args.trace_format.is_some() && !matches!(cmd, Cmd::TraceCapture | Cmd::TraceConvert) {
        die("--format picks a trace encoding; it applies to trace-capture/trace-convert only");
    }
    if (args.convert_from.is_some() || args.convert_to.is_some()) && cmd != Cmd::TraceConvert {
        die("--from/--to apply to trace-convert only");
    }
    if cmd == Cmd::TraceConvert {
        if scale_knobs_set
            || !run_only_flags.is_empty()
            || trace_knobs_set
            || args.capture_knobs_set
            || args.traces.is_some()
            || args.spec_file.is_some()
            || args.only.is_some()
            || args.fresh
        {
            die("trace-convert only takes --from FILE --to FILE [--format text|text-ext|bin]");
        }
        if args.convert_from.is_none() || args.convert_to.is_none() {
            die("trace-convert needs both --from FILE and --to FILE");
        }
    }
    if let Some(name) = args.only.as_deref() {
        // A --spec file and the --traces campaign carry their own sweep
        // names; only the built-in paper campaign has a fixed artifact
        // list to validate against.
        let known: Vec<&str> = paper::names().collect();
        if args.spec_file.is_none() && args.traces.is_none() && !known.contains(&name) {
            die(&format!(
                "unknown experiment `{name}`; expected one of {known:?}"
            ));
        }
    }
    args
}

/// Opens the `--events` JSONL sink, or a disabled log when the flag is
/// absent. Console output is identical either way.
fn event_log(args: &Args) -> Arc<EventLog> {
    match &args.events {
        Some(path) => Arc::new(EventLog::to_path(path).or_die("open --events", path.display())),
        None => Arc::new(EventLog::disabled()),
    }
}

/// The trace-sweep mechanisms `--traces DIR` evaluates by default; emit
/// the spec and edit it for other axes.
const TRACE_MECHS: [Mechanism; 3] = [Mechanism::RefAb, Mechanism::RefPb, Mechanism::Dsarp];

/// The campaign a bare `--traces DIR` runs: one sweep over the directory's
/// bundles at 32 Gb.
fn trace_spec(args: &Args, dir: &Path) -> CampaignSpec {
    CampaignSpec::new("traces", args.scale).with_sweep(SweepSpec::new(
        "traces",
        WorkloadSet::TraceDir {
            path: dir.to_string_lossy().into_owned(),
            glob: args.trace_glob.clone(),
            cores: args.trace_cores,
        },
        &TRACE_MECHS,
        &[Density::G32],
    ))
}

/// Resolves the campaign spec: a `--spec` file when given (with any
/// explicit `--cycles`/`--per-category`/`--threads` overrides applied on
/// top — changing cycles or workloads changes job fingerprints), a
/// `--traces DIR` sweep next, the built-in paper campaign otherwise. The
/// second element is true for custom specs, which reduce to generic
/// per-sweep grid CSVs instead of the paper's named artifacts.
fn resolve_spec(args: &Args) -> (CampaignSpec, bool) {
    // Two spec sources cannot both win; refuse rather than ignore one.
    if args.spec_file.is_some() && args.traces.is_some() {
        die("--traces conflicts with --spec (a spec file can hold a TraceDir sweep itself)");
    }
    let (spec, what) = if let Some(dir) = &args.traces {
        let what = "the trace campaign (its sweep is `traces`)";
        (trace_spec(args, dir), what)
    } else if let Some(path) = &args.spec_file {
        // A silently ignored preset would run at the file's scale
        // while the user believes they asked for another.
        if args.scale_set {
            die(
                "--scale conflicts with --spec (the spec file carries its own scale; \
                 use --cycles/--per-category/--threads to override individual knobs)",
            );
        }
        let text = std::fs::read_to_string(path).or_die("read --spec", path.display());
        let mut spec = CampaignSpec::from_json(&text).or_die("parse --spec", path.display());
        spec.scale = args.with_scale_overrides(spec.scale);
        (spec, "the custom spec")
    } else {
        return (paper::spec(args.scale, args.only.as_deref()), false);
    };
    // A custom campaign carries its own sweep names: `--exp` is a prefix.
    let Some(prefix) = args.only.as_deref() else {
        return (spec, true);
    };
    let spec = spec.filtered(&[prefix]);
    if spec.sweeps.is_empty() {
        die(&format!("--exp {prefix} matches no sweep of {what}"));
    }
    (spec, true)
}

fn worker_options(args: &Args) -> WorkerOptions {
    let job_delay_ms = std::env::var("DSARP_JOB_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    WorkerOptions {
        owner: args
            .owner
            .clone()
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        ttl_ms: args.ttl_ms,
        poll_ms: args.poll_ms,
        job_delay_ms,
    }
}

fn main() {
    let args = parse_args();
    // Capture knobs silently ignored by other subcommands would look like
    // configuration while changing nothing.
    if args.cmd != Cmd::TraceCapture && args.capture_knobs_set {
        die("--count/--ops/--seed configure `trace-capture` only");
    }
    if let Some(path) = &args.emit_spec {
        // Silently skipping a requested worker/merge/compact (or ignoring
        // a --spec file) would look like success while doing nothing.
        if args.cmd != Cmd::Run || args.spec_file.is_some() {
            die(
                "--emit-spec writes the built-in spec and exits; it cannot be combined \
                 with a subcommand or --spec",
            );
        }
        let (spec, what) = match &args.traces {
            Some(dir) => (trace_spec(&args, dir), "trace-sweep"),
            None => (CampaignSpec::paper(args.scale), "built-in paper"),
        };
        std::fs::write(path, spec.to_json()).or_die("write --emit-spec", path.display());
        println!(
            "wrote the {what} spec ({} sweeps) to {}",
            spec.sweeps.len(),
            path.display()
        );
        return;
    }
    if args.cmd == Cmd::TraceCapture {
        run_trace_capture(&args);
        return;
    }
    if args.cmd == Cmd::TraceConvert {
        run_trace_convert(&args);
        return;
    }
    let (spec, custom) = resolve_spec(&args);
    match args.cmd {
        Cmd::Worker => run_worker_cmd(&args, spec),
        Cmd::Status => run_status_cmd(&args, &spec),
        Cmd::Compact => run_compact_cmd(&args, &spec),
        Cmd::Serve => run_serve_cmd(&args, spec),
        Cmd::Run | Cmd::Merge => run_or_merge(&args, spec, custom),
        Cmd::TraceCapture | Cmd::TraceConvert => unreachable!("handled above"),
    }
}

/// `status`: renders per-shard drain progress against the spec plus the
/// current lease table, read-only (no lease taken, no record written).
fn run_status_cmd(args: &Args, spec: &CampaignSpec) {
    if args.fresh {
        die("--fresh would wipe the store status is meant to inspect; use it with `run`");
    }
    let campaign_dir = args.campaign_dir.join(&spec.name);
    // Expected cells per shard, from the same expansion run/worker use;
    // cross-sweep duplicates collapse exactly as they do when simulating.
    let plan = CampaignPlan::build(spec).unwrap_or_else(|e| die(&e.to_string()));
    let mut expected = vec![Vec::new(); SHARDS];
    for (fp, _) in plan.unique() {
        expected[Store::shard_of(*fp)].push(fp.0);
    }
    let leases = lease::list(&campaign_dir, SHARDS);
    let now = lease::now_ms();
    println!(
        "campaign `{}` at {} ({} sweeps)",
        spec.name,
        campaign_dir.display(),
        spec.sweeps.len()
    );
    println!("shard   done missing  lease");
    let (mut total_done, mut total_expected) = (0usize, 0usize);
    for (shard, want) in expected.iter().enumerate() {
        let present =
            Store::read_shard_fingerprints(&campaign_dir, shard).or_die("read shard", shard);
        let done = want.iter().filter(|fp| present.contains(fp)).count();
        total_done += done;
        total_expected += want.len();
        let lease_text = match leases.iter().find(|(s, _, _)| *s == shard) {
            Some((_, info, live)) => {
                let age_ms = now.saturating_sub(info.heartbeat_ms);
                format!(
                    "{} `{}` (pid {}, heartbeat {age_ms} ms ago, ttl {} ms)",
                    if *live { "held by" } else { "STALE from" },
                    info.owner,
                    info.pid,
                    info.ttl_ms
                )
            }
            None => String::from("-"),
        };
        println!(
            "  {shard:02}  {done:>5} {:>7}  {lease_text}",
            want.len() - done
        );
    }
    let pct = if total_expected == 0 {
        100.0
    } else {
        100.0 * total_done as f64 / total_expected as f64
    };
    println!(
        "total: {total_done}/{total_expected} cells done ({pct:.1}%), {} lease files on disk",
        leases.len()
    );
}

/// `serve`: hosts the campaign store over HTTP until killed. The first
/// stdout line is `serving <name> at http://ADDR` — scripts parse the URL
/// from it (`--listen 127.0.0.1:0` picks a free port).
fn run_serve_cmd(args: &Args, spec: CampaignSpec) {
    use std::io::Write;
    let listen = args.listen.as_deref().unwrap_or("127.0.0.1:0");
    let http = minihttp::Server::bind(listen).or_die("bind --listen", listen);
    let addr = http.local_addr().expect("bound listener has an address");
    let server = dsarp_serve::CampaignServer::new(&args.campaign_dir, spec)
        .or_die(OPEN_STORE, args.campaign_dir.display());
    println!(
        "serving {} at http://{addr} (store: {})",
        server.campaign_name(),
        server.campaign_dir().display()
    );
    std::io::stdout().flush().expect("flush URL line");
    server.serve(http).expect("serve campaign");
}

/// `trace-capture`: records `--count` memory-intensive synthetic mixes of
/// `--trace-cores` cores as trace files under `--traces DIR` (one file
/// per workload per core, `--ops` entries each, in the `--format`
/// dialect). File naming (`<mix>-c<NN>.<ext>`) sorts each mix's cores
/// consecutively, so a `--traces DIR --trace-cores N` sweep reassembles
/// exactly these bundles.
fn run_trace_capture(args: &Args) {
    let dir = args
        .traces
        .as_deref()
        .unwrap_or_else(|| die("trace-capture needs --traces DIR (the capture target directory)"));
    if args.spec_file.is_some() || args.only.is_some() || args.fresh {
        die("--spec/--exp/--fresh do not apply to trace-capture");
    }
    let dialect = args.trace_format.unwrap_or(dsarp_cpu::TraceDialect::Text);
    let workloads: Vec<dsarp_workloads::Workload> =
        dsarp_workloads::mixes::intensive_mixes(args.trace_cores, WORKLOAD_SEED)
            .into_iter()
            .take(args.capture_count)
            .collect();
    if workloads.len() != args.capture_count {
        die(&format!(
            "--count {} exceeds the {} available intensive mixes",
            args.capture_count,
            dsarp_workloads::mixes::intensive_mixes(args.trace_cores, WORKLOAD_SEED).len()
        ));
    }
    let t0 = Instant::now();
    let written = traces::capture_workloads(
        dir,
        &workloads,
        args.capture_seed,
        args.capture_ops,
        dialect,
    )
    .or_die("capture trace files under", dir.display());
    println!(
        "[{:>7.1?}] captured {} workloads x {} cores ({} entries each, {dialect}) \
         into {} files under {}",
        t0.elapsed(),
        workloads.len(),
        args.trace_cores,
        args.capture_ops,
        written.len(),
        dir.display()
    );
}

/// `trace-convert`: re-encodes `--from FILE` into `--to FILE`. The target
/// dialect comes from `--format`, else from the `--to` extension
/// (`.dtrace` means binary, anything else the lossless `text-ext`).
fn run_trace_convert(args: &Args) {
    use dsarp_cpu::TraceDialect;
    let from = args.convert_from.as_deref().expect("checked at parse");
    let to = args.convert_to.as_deref().expect("checked at parse");
    let target =
        args.trace_format
            .unwrap_or_else(|| match to.extension().and_then(|e| e.to_str()) {
                Some("dtrace") => TraceDialect::Bin,
                _ => TraceDialect::TextExt,
            });
    let bytes = std::fs::read(from).or_die("read --from", from.display());
    let t0 = Instant::now();
    let (summary, out) = dsarp_cpu::trace_v1::convert_bytes(&bytes, target)
        .unwrap_or_else(|e| die(&format!("trace file {}: {e}", from.display())));
    std::fs::write(to, &out).or_die("write --to", to.display());
    println!(
        "[{:>7.1?}] converted {} ({}, {} entries, {} bytes) -> {} ({target}, {} bytes)",
        t0.elapsed(),
        from.display(),
        summary.dialect,
        summary.entries,
        summary.bytes,
        to.display(),
        out.len()
    );
}

/// `worker`/`merge` pick a backend — the campaign server behind
/// `--store-url`, else the shared `--campaign` directory — and from there
/// share one [`CampaignClient`] path.
fn open_backend(args: &Args, spec: &CampaignSpec, events: &Arc<EventLog>) -> Box<dyn StoreBackend> {
    match &args.store_url {
        Some(url) => {
            // Every store and lease operation goes through the campaign
            // server; nothing is created locally.
            let mut backend =
                RemoteStore::connect(url, &spec.name).or_die("connect to campaign server", url);
            if events.is_recording() {
                // Transport back-offs land in the same JSONL stream as
                // lease churn, so a flaky server is visible per attempt.
                let log = Arc::clone(events);
                backend.set_retry_observer(Box::new(move |what, attempt, delay, error| {
                    log.emit(
                        false,
                        &Event::RetryAttempt {
                            what: what.to_string(),
                            attempt,
                            delay,
                            error: error.to_string(),
                        },
                    );
                }));
            }
            Box::new(backend)
        }
        None => {
            let dir = args.campaign_dir.display();
            let backend =
                LocalBackend::open(&args.campaign_dir, &spec.name).or_die(OPEN_STORE, &dir);
            let manifest = serde_json::to_value(spec).expect("specs serialize");
            Store::write_manifest(&args.campaign_dir, &spec.name, &manifest)
                .or_die("write campaign manifest under", &dir);
            Box::new(backend)
        }
    }
}

/// The store a `worker`/`merge` talks to, as the user named it.
fn store_name(args: &Args) -> String {
    let local = || args.campaign_dir.display().to_string();
    args.store_url.clone().unwrap_or_else(local)
}

fn distributed_client(spec: CampaignSpec, events: Arc<EventLog>) -> CampaignClient {
    let mut client = CampaignClient::new(spec);
    client.verbose = true;
    client.set_events(events);
    client
}

fn run_worker_cmd(args: &Args, spec: CampaignSpec) {
    let opts = worker_options(args);
    let events = event_log(args);
    let t0 = Instant::now();
    let backend = open_backend(args, &spec, &events);
    let report = distributed_client(spec, events)
        .run_worker(backend.as_ref(), &opts)
        .or_die("drain campaign through", store_name(args));
    println!(
        "worker `{}` done in {:.1?}: {} shard leases ({} reclaimed from dead owners), \
         {} jobs simulated, {} wait rounds",
        opts.owner,
        t0.elapsed(),
        report.shards_leased,
        report.reclaimed,
        report.simulated,
        report.wait_rounds
    );
    // Persist failures never reach this point: run_worker aborts the
    // drain with Err (and the expect above panics) rather than looping
    // on a failing disk.
}

fn run_compact_cmd(args: &Args, spec: &CampaignSpec) {
    if args.fresh {
        die("--fresh is meaningless for compact (use `run --fresh`)");
    }
    // A sweep filter would shrink the keep-set and delete every other
    // sweep's cached records as "orphans" — almost certainly not what
    // `--exp` was meant to do.
    if args.only.is_some() {
        die("compact keeps fingerprints reachable from the WHOLE spec; \
             --exp would drop every other sweep's records (remove the flag)");
    }
    let campaign_dir = args.campaign_dir.join(&spec.name);

    // Everything that can refuse runs BEFORE any lease is taken, so a
    // failed compact never strands 8 fresh locks that block workers (and
    // compact retries) for a whole TTL.
    // A trace sweep whose files are missing/unreadable must refuse here,
    // naming the offending file: expanding to an empty keep-set would
    // otherwise compact every cached record away as orphans.
    let plan = CampaignPlan::build(spec).unwrap_or_else(|e| {
        die(&format!(
            "refusing to compact: sweep `{}` failed to expand — {} \
             (fix or restore the trace, or compact with the spec that matches the store)",
            e.sweep, e.error
        ))
    });
    let keep: std::collections::HashSet<u128> = plan.unique().iter().map(|(fp, _)| fp.0).collect();
    // Refuse a compaction that would empty a non-empty store: the spec
    // (or its scale — cycles are part of the fingerprint) almost
    // certainly does not match what the store was populated with.
    let manifest = serde_json::to_value(spec).expect("specs serialize");
    let store = Store::open(&args.campaign_dir, &spec.name, &manifest)
        .or_die(OPEN_STORE, args.campaign_dir.display());
    let reachable = store
        .fingerprints()
        .filter(|fp| keep.contains(&fp.0))
        .count();
    if !store.is_empty() && reachable == 0 {
        die(&format!(
            "refusing to compact: the spec reaches none of the store's {} records — \
             wrong --spec file or --scale/--cycles for this store?",
            store.len()
        ));
    }
    drop(store);

    // Exclude every writer for the rewrite: appends only happen under a
    // shard lease, so holding all of them is sufficient. (A point-in-time
    // liveness scan would race a worker acquiring a lease and appending
    // between the scan and the rename.)
    let owner = format!("compact-{}", std::process::id());
    let mut held = Vec::new();
    for shard in 0..SHARDS {
        match lease::Lease::acquire(&campaign_dir, shard, &owner, args.ttl_ms)
            .expect("acquire compaction lease")
        {
            lease::Acquire::Acquired(lock) => held.push(lock),
            lease::Acquire::Held { holder, .. } => {
                for lock in held {
                    let _ = lock.release();
                }
                die(&format!(
                    "refusing to compact: shard {shard} is leased by `{}` \
                     (wait for workers to finish, or let the lease go stale)",
                    holder.owner
                ));
            }
        }
    }
    // The rewrite runs under a heartbeat so a slow pass (large store,
    // NFS) cannot let the compaction leases go stale and be reclaimed by
    // a worker mid-rewrite. Leases are released before the Result is
    // unwrapped, so an I/O failure doesn't strand them either.
    let heartbeat = lease::Heartbeat::new();
    let lock_refs: Vec<&lease::Lease> = held.iter().collect();
    let renew_every = std::time::Duration::from_millis((args.ttl_ms / 4).max(1));
    let result = std::thread::scope(|s| {
        s.spawn(|| heartbeat.run(&lock_refs, renew_every));
        let _stop = heartbeat.stopper();
        let stats = Store::compact(&args.campaign_dir, &spec.name, &keep);
        // While every writer is excluded anyway, clear temp files and
        // eviction tombstones orphaned by killed processes.
        let swept = lease::sweep_orphans(&campaign_dir, args.ttl_ms).unwrap_or(0);
        (stats, swept)
    });
    for lock in held {
        lock.release().expect("release compaction lease");
    }
    let (stats, swept) = result;
    let stats = stats.expect("compact store");
    println!(
        "compacted campaign `{}`: kept {} records, dropped {} orphans + {} duplicates + \
         {} torn lines ({} -> {} bytes); swept {swept} orphaned lease temp files",
        spec.name,
        stats.kept,
        stats.dropped_orphans,
        stats.dropped_duplicates,
        stats.dropped_torn,
        stats.bytes_before,
        stats.bytes_after
    );
}

fn run_or_merge(args: &Args, spec: CampaignSpec, custom: bool) {
    let out = &args.out;
    std::fs::create_dir_all(out).or_die("create --out", out.display());
    let mut md = String::from("# DSARP reproduction — raw experiment output\n\n");
    md.push_str(&format!(
        "Scale: {} DRAM cycles/run, {} workloads/category, {} threads.\n\n",
        spec.scale.dram_cycles,
        spec.scale.per_category,
        spec.scale.resolved_threads()
    ));
    let t0 = Instant::now();

    if args.fresh {
        let store = args.campaign_dir.join(&spec.name);
        if store.exists() {
            std::fs::remove_dir_all(&store).or_die("wipe campaign store", store.display());
        }
    }
    // The analytic Figure 5 alone needs no sweep: no store is opened and
    // no campaign report written, it reduces from an empty one.
    let result = if spec.sweeps.is_empty() {
        CampaignReport::default()
    } else {
        let result = execute(args, spec, t0);
        export::write_report_json(out, &result).or_die(WRITE_OUT, out.display());
        result
    };

    if custom {
        // Custom specs reduce to one generic grid CSV/JSONL per sweep.
        for (name, grid) in &result.grids {
            let file = format!("grid_{}", name.replace(['/', ' '], "-"));
            export::write_grid(out, &file, grid).or_die(WRITE_OUT, out.display());
            md.push_str(&report::to_markdown(&format!("Sweep {name}"), grid.rows()));
        }
        println!("[{:>7.1?}] grid exports done", t0.elapsed());
    } else {
        if let Some(grid) = result.grids.get(paper::MAIN_SWEEP) {
            export::write_grid(out, "main_grid", grid).or_die(WRITE_OUT, out.display());
        }
        let only = args.only.as_deref();
        for artifact in paper::ARTIFACTS.iter().filter(|a| a.answers(only)) {
            for section in artifact.reduce(&result) {
                report::write_csv(out, section.stem, &section.rows)
                    .or_die(WRITE_OUT, out.display());
                md.push_str(&section.markdown);
            }
            println!("[{:>7.1?}] {} done", t0.elapsed(), artifact.names.join("/"));
        }
    }
    std::fs::write(out.join("EXPERIMENTS_RAW.md"), md).or_die(WRITE_OUT, out.display());
    println!(
        "[{:>7.1?}] all requested experiments written to {}",
        t0.elapsed(),
        out.display()
    );
}

/// Runs the campaign locally (`run`) or drains and assembles it through
/// the store backend (`merge`).
fn execute(args: &Args, spec: CampaignSpec, t0: Instant) -> CampaignReport {
    let events = event_log(args);
    let result = if args.cmd == Cmd::Merge {
        // Coordinator: drain + snapshot + assemble through the backend.
        // The output is byte-identical whichever transport carried the
        // records (assembly is deterministic in the record set).
        let opts = worker_options(args);
        let backend = open_backend(args, &spec, &events);
        let (result, worker) = distributed_client(spec, events)
            .merge(backend.as_ref(), &opts)
            .or_die("merge campaign through", store_name(args));
        println!(
            "[{:>7.1?}] merge `{}`: {} shard leases ({} reclaimed), {} cells re-run \
             locally, {} wait rounds",
            t0.elapsed(),
            opts.owner,
            worker.shards_leased,
            worker.reclaimed,
            worker.simulated,
            worker.wait_rounds
        );
        result
    } else {
        let dir = args.campaign_dir.display();
        let mut campaign = Campaign::open(&args.campaign_dir, spec).or_die(OPEN_STORE, &dir);
        campaign.verbose = true;
        campaign.telemetry = args.telemetry;
        campaign.per_cycle = args.per_cycle;
        campaign.set_events(events);
        campaign.run().or_die("run campaign in", &dir)
    };
    println!(
        "[{:>7.1?}] campaign done: {} cells, {} cached, {} simulated",
        t0.elapsed(),
        result.stats.cells,
        result.stats.cache_hits,
        result.stats.simulated
    );
    result
}
