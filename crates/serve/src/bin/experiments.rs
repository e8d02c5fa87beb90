//! Regenerates every table and figure of the paper's evaluation through
//! the campaign engine: all runs are content-addressed, cached under the
//! campaign store, and resumable — re-running reuses every completed cell.
//!
//! `experiments --help` lists the subcommands and every flag;
//! `experiments <subcommand> --help` lists what that subcommand takes.
//! Both print [`FLAGS`], the one table that parsing, the usage refusals
//! and their tests are derived from.
//!
//! `run` and `merge` write one CSV per artifact under `--out`, a combined
//! `EXPERIMENTS_RAW.md`, and `campaign_report.json` with cache statistics.
//! A `--traces DIR` sweep bundles the sorted file names matching
//! `--trace-glob`, `--trace-cores` at a time; each file's content hash
//! feeds the job fingerprints, so editing a trace re-simulates exactly its
//! own cells. `--spec` and `--traces` campaigns reduce to one generic
//! `grid_<sweep>.csv` per sweep instead of the paper's named artifacts.

use dsarp_campaign::{
    export, lease, paper, traces, Campaign, CampaignClient, CampaignPlan, CampaignReport,
    CampaignSpec, CampaignStatus, Event, EventLog, LocalBackend, RemoteStore, Store, StoreBackend,
    SweepSpec, WorkerOptions, WorkloadSet,
};
use dsarp_core::Mechanism;
use dsarp_cpu::TraceDialect;
use dsarp_dram::Density;
use dsarp_sim::experiments::{
    harness::{Scale, WORKLOAD_SEED},
    report,
};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A subcommand: its name, the summary `--help` prints, and what runs it.
type Subcommand = (&'static str, &'static str, fn(&Args));

/// Every subcommand; the first is the default.
#[rustfmt::skip] // a table reads as a table: one row per line
const SUBCOMMANDS: [Subcommand; 8] = [
    ("run", "simulate the campaign in this process, then reduce its artifacts (the default)", run_or_merge),
    ("worker", "lease shards of the missing cells, simulate them, exit once all are drained", run_worker_cmd),
    ("merge", "wait for the drain, re-run dead workers' cells, then reduce exactly as run does", run_or_merge),
    ("status", "print done/missing cells and the lease holder of every shard (read-only)", run_status_cmd),
    ("compact", "copy the spec's live records into a new store under --to; the source is only read", run_compact_cmd),
    ("serve", "host the store over HTTP for --store-url workers; prints the URL first", run_serve_cmd),
    ("trace-capture", "record synthetic intensive mixes as trace files, one per core", run_trace_capture),
    ("trace-convert", "re-encode one trace file (lossless dialects round-trip byte-stably)", run_trace_convert),
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

/// The subcommands that resolve a campaign spec and its store.
const CAMPAIGN: &[&str] = &["run", "worker", "merge", "status", "compact", "serve"];
/// `--traces DIR` is a sweep source for those and the target of a capture.
#[rustfmt::skip]
const TRACES: &[&str] = &["run", "worker", "merge", "status", "compact", "serve", "trace-capture"];
/// Those that may filter the spec's sweeps: all but `compact`.
const FILTERED: &[&str] = &["run", "worker", "merge", "status", "serve"];

/// Every flag: its name; the value that follows it, as `--help` shows it
/// (`""` for a switch, `N` for a number, `a|b` for one of those words,
/// anything else for free text such as a path, URL or name); the
/// subcommands that consume it (every other one refuses it — a silently
/// ignored flag would look configured); its `--help` line; and the reason
/// appended to that refusal where "does not apply" alone would leave the
/// user guessing, else `""`. Parsing, those refusals, `--help` and the
/// refusal tests are all derived from these rows.
#[rustfmt::skip] // one row per flag
const FLAGS: &[(&str, &str, &[&str], &str, &str)] = &[
    ("--scale", "quick|full", CAMPAIGN, "run-length and workload-count preset (default full)", ""),
    ("--cycles", "N", CAMPAIGN, "DRAM cycles per run, over the preset's or the spec file's", ""),
    ("--per-category", "N", CAMPAIGN, "workloads per intensity category, likewise", ""),
    ("--threads", "N", CAMPAIGN, "simulation threads (default: every core)", ""),
    ("--campaign", "DIR", CAMPAIGN, "result store directory (default .campaign)", ""),
    ("--spec", "FILE", CAMPAIGN, "a serialized CampaignSpec to run instead of the paper campaign", ""),
    ("--traces", "DIR", TRACES, "sweep REFab/REFpb/DSARP at 32 Gb over this trace directory", ""),
    ("--trace-cores", "N", TRACES, "trace files bundled into one workload (default 1)", ""),
    ("--trace-glob", "GLOB", CAMPAIGN, "which files of --traces to sweep (default *.trace)", ""),
    ("--exp", "NAME", FILTERED, "only this artifact (of a custom spec: this sweep-name prefix)",
        "compact keeps what the WHOLE spec reaches; it would drop every other sweep's records"),
    ("--out", "DIR", &["run", "merge"], "where the CSVs and EXPERIMENTS_RAW.md go (default results)", ""),
    ("--events", "FILE", &["run", "worker", "merge"], "append one JSON line per campaign progress step", ""),
    ("--fresh", "", &["run"], "wipe the campaign's store first",
        "it would wipe records other workers are producing, or the store being inspected"),
    ("--emit-spec", "FILE", &["run"], "write the paper (or --traces) spec as JSON and exit", ""),
    ("--telemetry", "", &["run"], "also write <store>/telemetry/<fingerprint>.json per simulated cell", ""),
    ("--no-skip-ahead", "", &["run"], "step every cycle: byte-identical output, only slower",
        "workers always use the default loop; results are identical by the exactness guarantee"),
    ("--store-url", "URL", &["worker", "merge"], "use the store behind `experiments serve`, not a directory",
        "run `experiments serve` where the store lives; its GET /status replaces `status`"),
    ("--owner", "ID", &["worker", "merge"], "lease owner id (default worker-<pid>)", ""),
    ("--poll-ms", "N", &["worker", "merge"], "wait between polls for other workers' cells (default 500)", ""),
    ("--ttl-ms", "N", &["worker", "merge"], "lease lifetime without a heartbeat (default 30000)", ""),
    ("--listen", "ADDR", &["serve"], "bind address (default 127.0.0.1:0, a free port)", ""),
    ("--count", "N", &["trace-capture"], "mixes to capture (default 4)", ""),
    ("--ops", "N", &["trace-capture"], "entries per trace file (default 50000)", ""),
    ("--seed", "N", &["trace-capture"], "stream seed (default: the paper configuration's)", ""),
    ("--format", "text|text-ext|bin", &["trace-capture", "trace-convert"],
        "trace dialect (capture: text; convert: bin for a .dtrace target, else text-ext)", ""),
    ("--from", "FILE", &["trace-convert"], "the trace file to read", ""),
    ("--to", "PATH", &["compact", "trace-convert"], "where to write: compact's new store root, or the converted trace file", ""),
];

/// Pairs of flags that cannot both be given, and why.
#[rustfmt::skip]
const CONFLICTS: &[(&str, &str, &str)] = &[
    ("--campaign", "--store-url", "the server owns the store directory"),
    ("--spec", "--traces", "a spec file can hold a TraceDir sweep itself"),
    ("--scale", "--spec", "the file carries its own scale; --cycles/--per-category/--threads override it"),
    ("--emit-spec", "--spec", "it writes the built-in spec and exits; the file would be ignored"),
];

/// `(subject, needs, why)`: a flag or subcommand that does nothing without
/// another flag.
#[rustfmt::skip]
const REQUIRES: &[(&str, &str, &str)] = &[
    ("--trace-cores", "--traces", "it configures a trace-directory sweep or capture"),
    ("--trace-glob", "--traces", "it configures a trace-directory sweep"),
    ("trace-capture", "--traces", "the directory to capture into"),
    ("trace-convert", "--from", "the trace file to read"),
    ("trace-convert", "--to", "the trace file to write"),
    ("compact", "--to", "the directory the compacted store is written under"),
];

/// `--help` text: the rows of [`FLAGS`] that `cmd` takes, or for `None`
/// every subcommand and every row with the subcommands it applies to.
fn help(cmd: Option<&str>) -> String {
    let wanted = |cmds: &[&str]| cmd.is_none_or(|cmd| cmds.contains(&cmd));
    let mut out = String::from("usage: experiments [subcommand] [flags]\n\n");
    for (name, summary, _) in SUBCOMMANDS.iter().filter(|row| wanted(&[row.0])) {
        out += &format!("  {name:<14} {summary}\n");
    }
    out += "\nflags (`experiments <subcommand> --help` lists one subcommand's):\n";
    for (name, value, cmds, help, _) in FLAGS.iter().filter(|row| wanted(row.2)) {
        let scope = cmd.map_or_else(|| format!(" [{}]", cmds.join(", ")), |_| String::new());
        out += &format!("  {:<28} {help}{scope}\n", format!("{name} {value}"));
    }
    out
}

/// A parsed command line: the subcommand and every flag passed to it with
/// its value (empty for a switch; the last occurrence wins). Whether a
/// flag was passed is a lookup, and defaults live where a value is used.
struct Args {
    cmd: &'static str,
    given: HashMap<&'static str, String>,
}

/// Parses `argv` (without the program name) against [`FLAGS`].
///
/// # Errors
///
/// Every usage mistake — nothing here touches a file, store or socket —
/// as a message naming the offending token and ending with the `--help`
/// invocation that lists what is accepted.
fn parse(argv: &[String]) -> Result<Args, String> {
    let (cmd, flags) = match argv.split_first() {
        Some((word, rest)) if !word.starts_with('-') => {
            let listed = SUBCOMMANDS.iter().find(|row| row.0 == word);
            let all = SUBCOMMANDS.map(|row| row.0).join("|");
            let unknown = format!("unknown subcommand `{word}` ({all}); see experiments --help");
            (listed.ok_or(unknown)?.0, rest)
        }
        _ => (SUBCOMMANDS[0].0, argv),
    };
    let see = |message| format!("{message}; see experiments {cmd} --help");
    parse_flags(cmd, flags).map_err(see)
}

fn parse_flags(cmd: &'static str, flags: &[String]) -> Result<Args, String> {
    let mut given = HashMap::new();
    let mut words = flags.iter();
    while let Some(word) = words.next() {
        let row = FLAGS.iter().find(|row| row.0 == word);
        let &(name, kind, cmds, _, note) = row.ok_or(format!("unknown argument `{word}`"))?;
        if !cmds.contains(&cmd) {
            let (to, colon) = (cmds.join(", "), if note.is_empty() { "" } else { ": " });
            return Err(format!(
                "{name} does not apply to `{cmd}` (applies to: {to}){colon}{note}"
            ));
        }
        let value = match kind {
            "" => "",
            _ => words.next().ok_or(format!("missing value for {name}"))?,
        };
        let valid = match kind {
            "N" => value.parse::<usize>().is_ok(),
            _ if kind.contains('|') => kind.split('|').any(|choice| choice == value),
            _ => true,
        };
        if !valid {
            return Err(format!("{name} takes {kind}, not `{value}`"));
        }
        given.insert(name, value.to_string());
    }
    let args = Args { cmd, given };
    for (a, b, why) in CONFLICTS {
        if args.has(a) && args.has(b) {
            return Err(format!("{a} conflicts with {b} ({why})"));
        }
    }
    for (subject, needs, why) in REQUIRES {
        if (*subject == cmd || args.given.contains_key(subject)) && !args.has(needs) {
            return Err(format!("{subject} needs {needs} ({why})"));
        }
    }
    // A --spec file and the --traces campaign carry their own sweep names;
    // only the built-in paper campaign has a fixed list to check against.
    let known: Vec<&str> = paper::names().collect();
    let builtin = !args.has("--spec") && !args.has("--traces");
    match args.get("--exp") {
        Some(name) if builtin && !known.contains(&name) => Err(format!(
            "unknown experiment `{name}`; expected one of {known:?}"
        )),
        _ => Ok(args),
    }
}

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        debug_assert!(FLAGS.iter().any(|row| row.0 == flag));
        self.given.get(flag).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn path(&self, flag: &str) -> Option<&Path> {
        self.get(flag).map(Path::new)
    }

    /// The value of an `N` flag, which `parse` checked is one.
    fn num<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let fits = "parse() checked that N values fit usize, and u64 is no narrower";
        self.get(flag).map(|value| value.parse().ok().expect(fits))
    }

    fn dialect(&self) -> Option<TraceDialect> {
        let checked = |name| TraceDialect::parse(name).expect("parse() checked the choice");
        self.get("--format").map(checked)
    }

    fn campaign_dir(&self) -> &Path {
        self.path("--campaign").unwrap_or(Path::new(".campaign"))
    }

    fn ttl_ms(&self) -> u64 {
        self.num("--ttl-ms").unwrap_or(lease::DEFAULT_TTL_MS)
    }

    fn trace_cores(&self) -> usize {
        self.num("--trace-cores").unwrap_or(1)
    }

    /// The `--scale` preset with the explicit overrides applied.
    fn scale(&self) -> Scale {
        let quick = self.get("--scale") == Some("quick");
        self.with_scale_overrides(if quick { Scale::quick() } else { Scale::full() })
    }

    /// `scale` with the explicit `--cycles`/`--per-category`/`--threads`
    /// applied on top (of the `--scale` preset, or of a `--spec` file's).
    fn with_scale_overrides(&self, mut scale: Scale) -> Scale {
        scale.dram_cycles = self.num("--cycles").unwrap_or(scale.dram_cycles);
        scale.per_category = self.num("--per-category").unwrap_or(scale.per_category);
        self.num("--threads")
            .map_or(scale, |t| scale.with_threads(t))
    }
}

/// Opens the `--events` JSONL sink, or a disabled log when the flag is
/// absent. Console output is identical either way.
fn event_log(args: &Args) -> Arc<EventLog> {
    match args.path("--events") {
        Some(path) => Arc::new(EventLog::to_path(path).or_die("open --events", path.display())),
        None => Arc::new(EventLog::disabled()),
    }
}

/// The campaign a bare `--traces DIR` runs: one sweep of three mechanisms
/// over the directory's bundles at 32 Gb; emit the spec and edit it for
/// other axes.
fn trace_spec(args: &Args, dir: &Path) -> CampaignSpec {
    CampaignSpec::new("traces", args.scale()).with_sweep(SweepSpec::new(
        "traces",
        WorkloadSet::TraceDir {
            path: dir.to_string_lossy().into_owned(),
            glob: args.get("--trace-glob").unwrap_or("*.trace").to_string(),
            cores: args.trace_cores(),
        },
        &[Mechanism::RefAb, Mechanism::RefPb, Mechanism::Dsarp],
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
    let (spec, what) = if let Some(dir) = args.path("--traces") {
        let what = "the trace campaign (its sweep is `traces`)";
        (trace_spec(args, dir), what)
    } else if let Some(path) = args.path("--spec") {
        let text = std::fs::read_to_string(path).or_die("read --spec", path.display());
        let mut spec = CampaignSpec::from_json(&text).or_die("parse --spec", path.display());
        spec.scale = args.with_scale_overrides(spec.scale);
        (spec, "the custom spec")
    } else {
        return (paper::spec(args.scale(), args.get("--exp")), false);
    };
    // Refused before any store, lease or worker thread exists.
    spec.validate().unwrap_or_else(|e| die(&e.to_string()));
    // A custom campaign carries its own sweep names: `--exp` is a prefix.
    let Some(prefix) = args.get("--exp") else {
        return (spec, true);
    };
    let spec = spec.filtered(&[prefix]);
    if spec.sweeps.is_empty() {
        die(&format!("--exp {prefix} matches no sweep of {what}"));
    }
    (spec, true)
}

fn worker_options(args: &Args) -> WorkerOptions {
    let owner = args.get("--owner").map(String::from);
    let delay = std::env::var("DSARP_JOB_DELAY_MS").ok();
    WorkerOptions {
        owner: owner.unwrap_or_else(|| format!("worker-{}", std::process::id())),
        ttl_ms: args.ttl_ms(),
        poll_ms: args.num("--poll-ms").unwrap_or(500),
        job_delay_ms: delay.and_then(|ms| ms.parse().ok()).unwrap_or(0),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--help` is not a flag: it configures nothing and is answered first.
    if argv.iter().any(|word| word == "--help" || word == "-h") {
        let listed = |word: &&str| SUBCOMMANDS.iter().any(|row| row.0 == *word);
        return print!("{}", help(argv.first().map(String::as_str).filter(listed)));
    }
    let args = parse(&argv).unwrap_or_else(|message| die(&message));
    let listed = SUBCOMMANDS.iter().find(|row| row.0 == args.cmd);
    (listed.expect("parse() resolved the subcommand").2)(&args)
}

/// `status`: renders per-shard drain progress against the spec plus the
/// current lease table, read-only (no lease taken, no record written).
fn run_status_cmd(args: &Args) {
    let spec = &resolve_spec(args).0;
    let campaign_dir = args.campaign_dir().join(&spec.name);
    let status = CampaignStatus::read(spec, &campaign_dir)
        .or_die("read campaign store", campaign_dir.display());
    let (name, dir, sweeps) = (&status.campaign, campaign_dir.display(), status.sweeps);
    println!("campaign `{name}` at {dir} ({sweeps} sweeps)");
    println!("shard   done missing  lease");
    for shard in &status.shards {
        let lease_text = match &shard.lease {
            Some(lease) => format!(
                "{} `{}` (pid {}, heartbeat {} ms ago, ttl {} ms)",
                if lease.live { "held by" } else { "STALE from" },
                lease.owner,
                lease.pid,
                lease.heartbeat_ms_ago,
                lease.ttl_ms
            ),
            None => String::from("-"),
        };
        let (n, done, missing) = (shard.shard, shard.done, shard.missing);
        println!("  {n:02}  {done:>5} {missing:>7}  {lease_text}");
    }
    let pct = match status.cells {
        0 => 100.0,
        cells => 100.0 * status.done as f64 / cells as f64,
    };
    let leases = status.shards.iter().filter(|s| s.lease.is_some()).count();
    let (done, cells) = (status.done, status.cells);
    println!("total: {done}/{cells} cells done ({pct:.1}%), {leases} lease files on disk");
}

/// `serve`: hosts the campaign store over HTTP until killed. The first
/// stdout line is `serving <name> at http://ADDR` — scripts parse the URL
/// from it (`--listen 127.0.0.1:0` picks a free port).
fn run_serve_cmd(args: &Args) {
    let (spec, _) = resolve_spec(args);
    use std::io::Write;
    let listen = args.get("--listen").unwrap_or("127.0.0.1:0");
    let http = minihttp::Server::bind(listen).or_die("bind --listen", listen);
    let addr = http.local_addr().expect("bound listener has an address");
    let server = dsarp_serve::CampaignServer::new(args.campaign_dir(), spec)
        .or_die(OPEN_STORE, args.campaign_dir().display());
    println!(
        "serving {} at http://{addr} (store: {})",
        server.campaign_name(),
        server.campaign_dir().display()
    );
    std::io::stdout().flush().expect("flush URL line");
    server.serve(http).or_die("serve campaign at", addr);
}

/// `trace-capture`: records `--count` memory-intensive synthetic mixes of
/// `--trace-cores` cores as trace files under `--traces DIR` (one file
/// per workload per core, `--ops` entries each, in the `--format`
/// dialect). File naming (`<mix>-c<NN>.<ext>`) sorts each mix's cores
/// consecutively, so a `--traces DIR --trace-cores N` sweep reassembles
/// exactly these bundles.
fn run_trace_capture(args: &Args) {
    let dir = args.path("--traces").expect("parse() requires it");
    let dialect = args.dialect().unwrap_or(TraceDialect::Text);
    let count = args.num("--count").unwrap_or(4);
    let ops = args.num("--ops").unwrap_or(50_000);
    // The paper SimConfig's seed: captured entries are the exact streams
    // the synthetic default sweeps generate. (The text format itself is
    // lossy for store bubbles and load dependence, so replay is bit-exact
    // only for loads-only streams — see the README.)
    let seed = args.num("--seed").unwrap_or(0xD5A2_2014);
    let mut workloads = dsarp_workloads::mixes::intensive_mixes(args.trace_cores(), WORKLOAD_SEED);
    if workloads.len() < count {
        die(&format!(
            "--count {count} exceeds the {} available intensive mixes",
            workloads.len()
        ));
    }
    workloads.truncate(count);
    let t0 = Instant::now();
    let written = traces::capture_workloads(dir, &workloads, seed, ops, dialect)
        .or_die("capture trace files under", dir.display());
    println!(
        "[{:>7.1?}] captured {} workloads x {} cores ({} entries each, {dialect}) \
         into {} files under {}",
        t0.elapsed(),
        workloads.len(),
        args.trace_cores(),
        ops,
        written.len(),
        dir.display()
    );
}

/// `trace-convert`: re-encodes `--from FILE` into `--to FILE`. The target
/// dialect comes from `--format`, else from the `--to` extension
/// (`.dtrace` means binary, anything else the lossless `text-ext`).
fn run_trace_convert(args: &Args) {
    let from = args.path("--from").expect("parse() requires it");
    let to = args.path("--to").expect("parse() requires it");
    let by_extension = match to.extension().and_then(|e| e.to_str()) {
        Some("dtrace") => TraceDialect::Bin,
        _ => TraceDialect::TextExt,
    };
    let target = args.dialect().unwrap_or(by_extension);
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
    match args.get("--store-url") {
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
                            delay_ms: u64::try_from(delay.as_millis()).unwrap_or(u64::MAX),
                            error: error.to_string(),
                        },
                    );
                }));
            }
            Box::new(backend)
        }
        None => {
            let dir = args.campaign_dir().display();
            let backend =
                LocalBackend::open(args.campaign_dir(), &spec.name).or_die(OPEN_STORE, &dir);
            Store::write_manifest(args.campaign_dir(), &spec.name, spec)
                .or_die("write campaign manifest under", &dir);
            Box::new(backend)
        }
    }
}

fn distributed_client(spec: CampaignSpec, events: Arc<EventLog>) -> CampaignClient {
    let mut client = CampaignClient::new(spec);
    client.verbose = true;
    client.set_events(events);
    client
}

fn run_worker_cmd(args: &Args) {
    let (spec, _) = resolve_spec(args);
    let opts = worker_options(args);
    let events = event_log(args);
    let t0 = Instant::now();
    let backend = open_backend(args, &spec, &events);
    let report = distributed_client(spec, events)
        .run_worker(backend.as_ref(), &opts)
        .or_die("drain campaign through", backend.describe());
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
    // drain with Err (and the or_die above exits 2) rather than looping
    // on a failing disk.
}

/// `compact`: copies the records the spec reaches into a new store under
/// `--to`, first record per fingerprint, byte for byte. The source is only
/// read, so workers and servers may keep running; swapping the new store in
/// is left to the user, with nothing running.
fn run_compact_cmd(args: &Args) {
    let spec = &resolve_spec(args).0;
    let (root, to) = (
        args.campaign_dir(),
        args.path("--to").expect("parse() requires it"),
    );
    let campaign_dir = root.join(&spec.name);
    let target = to.join(&spec.name);
    if same_dir(root, to) {
        die(&format!(
            "refusing to compact: --to {} is the --campaign root; name a new directory",
            to.display()
        ));
    }
    // A trace sweep whose files are missing/unreadable must refuse here,
    // naming the offending file: expanding to an empty keep-set would
    // otherwise drop every cached record as an orphan.
    let plan = CampaignPlan::build(spec).unwrap_or_else(|e| {
        die(&format!(
            "refusing to compact: {e} \
             (fix or restore the trace, or compact with the spec that matches the store)"
        ))
    });
    let keep: HashSet<u128> = plan.unique().iter().map(|(fp, _)| fp.0).collect();
    // Refuse a compaction that would empty a non-empty store: the spec
    // (or its scale — cycles are part of the fingerprint) almost
    // certainly does not match what the store was populated with.
    let records = Store::read_all(&campaign_dir).or_die(OPEN_STORE, root.display());
    if !records.is_empty() && !records.keys().any(|fp| keep.contains(fp)) {
        die(&format!(
            "refusing to compact: the spec reaches none of the store's {} records — \
             wrong --spec file or --scale/--cycles for this store?",
            records.len()
        ));
    }
    drop(records);
    let stats = Store::compact_to(root, &spec.name, &keep, to, spec)
        .or_die("write the compacted store", target.display());
    println!(
        "compacted campaign `{}` into {}: kept {} records, dropped {} orphans + {} duplicates + \
         {} torn lines ({} -> {} bytes)",
        spec.name,
        target.display(),
        stats.kept,
        stats.dropped_orphans,
        stats.dropped_duplicates,
        stats.dropped_torn,
        stats.bytes_before,
        stats.bytes_after
    );
}

/// Whether `a` and `b` name one directory: compared canonically when both
/// exist, else as absolute paths.
fn same_dir(a: &Path, b: &Path) -> bool {
    match (a.canonicalize(), b.canonicalize()) {
        (Ok(a), Ok(b)) => a == b,
        _ => std::path::absolute(a).ok() == std::path::absolute(b).ok(),
    }
}

/// `run` and `merge`: execute or drain the campaign, then reduce it.
fn run_or_merge(args: &Args) {
    if let Some(path) = args.path("--emit-spec") {
        let (spec, what) = match args.path("--traces") {
            Some(dir) => (trace_spec(args, dir), "trace-sweep"),
            None => (CampaignSpec::paper(args.scale()), "built-in paper"),
        };
        std::fs::write(path, spec.to_json()).or_die("write --emit-spec", path.display());
        let (sweeps, path) = (spec.sweeps.len(), path.display());
        return println!("wrote the {what} spec ({sweeps} sweeps) to {path}");
    }
    let (spec, custom) = resolve_spec(args);
    let out = args.path("--out").unwrap_or(Path::new("results"));
    std::fs::create_dir_all(out).or_die("create --out", out.display());
    let mut md = String::from("# DSARP reproduction — raw experiment output\n\n");
    md.push_str(&format!(
        "Scale: {} DRAM cycles/run, {} workloads/category, {} threads.\n\n",
        spec.scale.dram_cycles,
        spec.scale.per_category,
        spec.scale.resolved_threads()
    ));
    let t0 = Instant::now();

    let store = args.campaign_dir().join(&spec.name);
    if args.has("--fresh") && store.exists() {
        std::fs::remove_dir_all(&store).or_die("wipe campaign store", store.display());
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
        let only = args.get("--exp");
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
    let result = if args.cmd == "merge" {
        // Coordinator: drain + snapshot + assemble through the backend.
        // The output is byte-identical whichever transport carried the
        // records (assembly is deterministic in the record set).
        let opts = worker_options(args);
        let backend = open_backend(args, &spec, &events);
        let (result, worker) = distributed_client(spec, events)
            .merge(backend.as_ref(), &opts)
            .or_die("merge campaign through", backend.describe());
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
        let dir = args.campaign_dir().display();
        let mut campaign = Campaign::open(args.campaign_dir(), spec).or_die(OPEN_STORE, &dir);
        campaign.verbose = true;
        campaign.telemetry = args.has("--telemetry");
        campaign.per_cycle = args.has("--no-skip-ahead");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(words: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = words.iter().map(|word| word.to_string()).collect();
        parse(&argv).map(|_| ())
    }

    /// A flag with a value its row accepts (`fig5` is a known `--exp`, and
    /// as good a path, URL or owner as any: `parse` opens nothing); a
    /// subcommand as itself.
    fn sample(token: &'static str) -> Vec<&'static str> {
        match FLAGS.iter().find(|row| row.0 == token).map(|row| row.1) {
            None | Some("") => vec![token],
            Some("N") => vec![token, "3"],
            Some(kind) if kind.contains('|') => vec![token, kind.split('|').next().unwrap()],
            Some(_) => vec![token, "fig5"],
        }
    }

    /// `words` plus whatever [`REQUIRES`] says they need, but for row `skip`.
    fn complete(mut words: Vec<&'static str>, skip: Option<usize>) -> Vec<&'static str> {
        for (i, (subject, needs, _)) in REQUIRES.iter().enumerate() {
            if Some(i) != skip && words.contains(subject) && !words.contains(needs) {
                words.extend(sample(needs));
            }
        }
        words
    }

    #[test]
    fn every_flag_applies_exactly_where_its_row_says() {
        let mut consumed = [0; 8];
        for &(name, _, cmds, help_line, _) in FLAGS {
            assert!(!help_line.is_empty(), "{name} has no help string");
            for (i, &(cmd, ..)) in SUBCOMMANDS.iter().enumerate() {
                let words = complete([vec![cmd], sample(name)].concat(), None);
                let listed = help(Some(cmd)).contains(&format!("  {name} "));
                assert_eq!(listed, cmds.contains(&cmd), "{name} in `{cmd} --help`");
                let refusal = format!("{name} does not apply to `{cmd}`");
                let see = format!("see experiments {cmd} --help");
                match outcome(&words) {
                    Ok(()) if listed => consumed[i] += 1,
                    Err(said) if !listed && said.starts_with(&refusal) && said.ends_with(&see) => {}
                    other => panic!("{words:?}: {other:?}"),
                }
            }
        }
        // The consumers of each subcommand, in table order, as reviewed:
        // widening a row takes code that reads the flag there and a new
        // count here.
        assert_eq!(consumed, [16, 15, 16, 10, 10, 11, 6, 3]);
    }

    #[test]
    fn cross_flag_rules_refuse_naming_both_sides() {
        for (a, b, _) in CONFLICTS {
            let refused = SUBCOMMANDS.iter().any(|&(cmd, ..)| {
                let both = outcome(&[vec![cmd], sample(a), sample(b)].concat());
                both.is_err_and(|said| said.starts_with(&format!("{a} conflicts with {b}")))
            });
            assert!(refused, "{a} and {b} never meet in a subcommand");
        }
        for (i, (subject, needs, _)) in REQUIRES.iter().enumerate() {
            let said = outcome(&complete(sample(subject), Some(i))).unwrap_err();
            assert!(
                said.starts_with(&format!("{subject} needs {needs}")),
                "{said}"
            );
        }
    }

    #[test]
    fn malformed_lines_name_the_token() {
        for (words, needle) in [
            (&["frobnicate"][..], "unknown subcommand `frobnicate`"),
            (&["run", "--bogus"], "unknown argument `--bogus`"),
            (&["worker", "--ttl-ms"], "missing value for --ttl-ms"),
            (
                &["--scale", "bogus"],
                "--scale takes quick|full, not `bogus`",
            ),
            (&["--cycles", "abc"], "--cycles takes N, not `abc`"),
            (&["--exp", "nope"], "unknown experiment `nope`"),
        ] {
            let said = outcome(words).unwrap_err();
            assert!(said.starts_with(needle), "{words:?}: {said}");
        }
        assert!(FLAGS.iter().all(|row| help(None).contains(row.0)));
        assert!(SUBCOMMANDS.iter().all(|row| help(None).contains(row.1)));
    }
}
