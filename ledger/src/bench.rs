//! What every workload shares: run context, the closed repetition loop,
//! correctness accounting, order statistics, the request-order RNG and the
//! host-side probes (peak RSS, scratch directory).

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Default `--seed`: the simulator's own paper seed.
pub const DEFAULT_SEED: u64 = 0xD5A2_2014;

/// Everything a workload needs to know about this invocation.
pub struct Ctx {
    pub seed: u64,
    /// Measuring time for the repetition loop.
    pub seconds: f64,
    /// `--smoke`: every input ÷ 20 and exactly two repetitions.
    pub smoke: bool,
    /// `--trace 1`: record spans and run the per-layer drivers.
    pub traced: bool,
    /// Scratch root for stores, trace exports and servers; removed on exit.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A fixed input size, or a twentieth of it under `--smoke`.
    pub fn size(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// A fresh, empty directory under the scratch root.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = self
            .scratch
            .join(format!("{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// Correctness accounting: every operation and every check is one attempt;
/// a failed check is a failed operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// `--flip-check`: the first check compares against the opposite of its
    /// expected value, to show that a failing check fails the command.
    pub flip_first: bool,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        let ok = ok != std::mem::take(&mut self.flip_first);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// `n` operations that completed without a check of their own.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// What one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Timed region of each repetition, seconds.
    pub timed_s: Vec<f64>,
    /// Work units (DRAM cycles, cells, requests) in one timed region.
    pub work_per_rep: f64,
    /// Median latency of the caller-visible operation in each repetition,
    /// µs. Empty means the repetition is the operation (`timed_s`).
    pub op_us: Vec<f64>,
    /// Exact simulated results, comparable across commits.
    pub fingerprints: Vec<(&'static str, String)>,
    /// Per-layer metrics (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
}

/// The closed repetition loop: `setup` then `timed` then `after` (checks,
/// untimed), the next repetition starting when the previous one completes,
/// until `seconds` have passed (at least three repetitions; exactly two
/// under `--smoke`).
pub fn repeat<S, T>(
    ctx: &Ctx,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
    mut setup: impl FnMut() -> S,
    mut timed: impl FnMut(S) -> T,
    mut after: impl FnMut(usize, T),
) {
    let start = Instant::now();
    let mut rep = 0;
    loop {
        let done = if ctx.smoke {
            rep >= 2
        } else {
            rep >= 3 && start.elapsed().as_secs_f64() >= seconds
        };
        if done {
            return;
        }
        // Every span of a repetition descends from this one; its self time
        // is what the benchmark itself costs.
        tracer.span("ledger", "ledger.rep", || {
            let t0 = Instant::now();
            let state = setup();
            let t1 = Instant::now();
            let result = timed(state);
            let t2 = Instant::now();
            out.setup_s.push((t1 - t0).as_secs_f64());
            out.timed_s.push((t2 - t1).as_secs_f64());
            after(rep, result);
        });
        rep += 1;
    }
}

/// Runs a workload's repetition loop (`reps`, given its measuring time)
/// with tracing off for all of `--seconds`. In a traced run it gets a
/// quarter of that, the loop then runs once more for another quarter with
/// tracing on, and the difference between the two loops is recorded as
/// `trace.overhead_pct`; the traced loop's outcome is returned second.
pub fn measure(
    ctx: &Ctx,
    tracer: &Tracer,
    mut reps: impl FnMut(f64) -> Outcome,
) -> (Outcome, Option<Outcome>) {
    tracer.set_on(false);
    if !ctx.traced {
        return (reps(ctx.seconds), None);
    }
    let mut out = reps(ctx.seconds / 4.0);
    tracer.set_on(true);
    let traced = reps(ctx.seconds / 4.0);
    out.layer
        .insert("trace.overhead_pct", overhead_pct(&out, &traced));
    (out, Some(traced))
}

/// `(q1, median, q3)` by linear interpolation between order statistics.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Tracing overhead: the fastest traced repetition (set-up + timed
/// region) against the fastest untraced one, as a percentage of the
/// untraced.
fn overhead_pct(untraced: &Outcome, traced: &Outcome) -> f64 {
    let fastest = |o: &Outcome| {
        let reps = o.setup_s.iter().zip(&o.timed_s).map(|(a, b)| a + b);
        reps.fold(f64::INFINITY, f64::min)
    };
    (fastest(traced) / fastest(untraced) - 1.0) * 100.0
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Order statistic `q` in `[0, 1]` (nearest rank), for request tails.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// splitmix64: the request-order RNG. The program under test never sees it.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Where everything the ledger writes goes: beside its own executable, so
/// inside the build directory of whatever checkout built it.
pub fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.parent()
        .expect("executable has a directory")
        .to_path_buf()
}

/// The scratch root of this process, removed when dropped — also when a
/// check failed, since `main` drops it before choosing the exit code.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn create() -> Self {
        let dir = exe_dir().join(format!("dsarp-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("build directory is writable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the span file of a traced run (`metrics` is its per-layer
/// metrics as a JSON array) and returns its path.
pub fn write_trace(workload: &str, tracer: &Tracer, metrics: &str) -> std::io::Result<PathBuf> {
    let dir = exe_dir().join("ledger-out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json(workload, metrics))?;
    Ok(path)
}
