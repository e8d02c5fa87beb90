//! Trace-driven campaign acceptance tests.
//!
//! * Property: `trace-capture` → `TraceDir` campaign equals the
//!   synthetic-workload computation cell-for-cell. Plain text covers
//!   loads-only streams (stores with bubbles and dependent loads have no
//!   lossless rendering there); the v1 lossless dialects (`text-ext`,
//!   binary `.dtrace`) extend the same guarantee to the full catalogue —
//!   stores, store bubbles and load dependence included.
//! * A torn/truncated trace is rejected with an error naming the file,
//!   not replayed as a silently wrong simulation — in every encoding.
//! * Cold → warm replays simulate nothing and reduce byte-identically;
//!   corrupting one byte of one trace (text or binary record) recomputes
//!   exactly that trace's cells.
//! * The CLI path: a `--spec` JSON with a `TraceDir` sweep runs cold,
//!   resumes warm with zero re-simulation, and two `worker` processes
//!   plus `merge` produce output byte-identical to the single-process
//!   run over the same trace directory; `trace-convert` round-trips
//!   byte-stably and converted suites reduce to identical grids.

use dsarp_campaign::traces::{capture_workloads, resolve_trace_dir};
use dsarp_campaign::{Campaign, CampaignReport, CampaignSpec, SweepSpec, WorkloadSet};
use dsarp_core::Mechanism;
use dsarp_cpu::TraceDialect;
use dsarp_dram::Density;
use dsarp_sim::experiments::harness::{Grid, Scale};
use dsarp_sim::experiments::report;
use dsarp_sim::SimConfig;
use dsarp_workloads::{BenchmarkSpec, IntensityCategory, MemClass, Workload};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// The paper `SimConfig` seed — captures must generate the exact streams
/// the synthetic sweeps feed their cores.
const SIM_SEED: u64 = 0xD5A2_2014;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dsarp-trace-int-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_scale() -> Scale {
    Scale {
        dram_cycles: 1_500,
        alone_cycles: 800,
        per_category: 1,
        threads: 2,
        warmup_ops: 200,
    }
}

/// Enough captured entries that neither warmup nor the timed run can wrap
/// the file: a core retires at most 18 instructions per DRAM cycle and
/// every entry is at least one instruction.
fn ops_needed(scale: &Scale) -> usize {
    (scale.warmup_ops + 18 * scale.dram_cycles.max(scale.alone_cycles)) as usize + 256
}

/// Renders every grid of a report to one comparable CSV blob.
fn render(report: &CampaignReport) -> String {
    let mut out = String::new();
    for (name, grid) in &report.grids {
        out.push_str(name);
        out.push('\n');
        out.push_str(&report::to_csv(grid.rows()));
    }
    out
}

fn trace_sweep_spec(name: &str, dir: &Path, cores: usize, scale: Scale) -> CampaignSpec {
    CampaignSpec::new(name, scale).with_sweep(SweepSpec::new(
        "traces",
        WorkloadSet::trace_dir(dir.to_string_lossy().into_owned(), cores),
        &[Mechanism::RefAb, Mechanism::Dsarp],
        &[Density::G8],
    ))
}

/// As [`trace_sweep_spec`] with an explicit glob (binary suites need
/// `*.dtrace`).
fn trace_sweep_spec_glob(
    name: &str,
    dir: &Path,
    glob: &str,
    cores: usize,
    scale: Scale,
) -> CampaignSpec {
    CampaignSpec::new(name, scale).with_sweep(SweepSpec::new(
        "traces",
        WorkloadSet::TraceDir {
            path: dir.to_string_lossy().into_owned(),
            glob: glob.into(),
            cores,
        },
        &[Mechanism::RefAb, Mechanism::Dsarp],
        &[Density::G8],
    ))
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(3))]

    /// `trace-capture` → `TraceDir` campaign == synthetic computation,
    /// cell-for-cell, across generator parameters. Loads-only archetypes
    /// are exactly what the Ramulator format round-trips losslessly; the
    /// capture must also be long enough that the cyclic replay never
    /// wraps within warmup + run.
    #[test]
    fn captured_trace_campaign_equals_synthetic_computation(
        mem_interval in 2u32..10,
        stream_sel in 0usize..3,
        cycle_step in 0u64..3,
    ) {
        let mut scale = tiny_scale();
        scale.dram_cycles = 1_000 + 250 * cycle_step;
        let spec: &'static BenchmarkSpec = Box::leak(Box::new(BenchmarkSpec {
            name: Box::leak(format!("conf-{mem_interval}-{stream_sel}").into_boxed_str()),
            mem_interval,
            store_frac: 0.0, // loads only: losslessly expressible
            stream_frac: [0.0, 0.4, 0.8][stream_sel],
            num_streams: 2,
            stream_stride: 64,
            working_set: 8 << 20,
            hot_frac: 0.3,
            hot_bytes: 128 << 10,
            dep_frac: 0.0, // the text format carries no dependence bit
            class: MemClass::Intensive,
        }));
        let workload = Workload {
            name: "wl".into(),
            category: IntensityCategory::P100,
            benchmarks: vec![spec],
        };

        let dir = tmpdir(&format!("prop-{mem_interval}-{stream_sel}-{cycle_step}"));
        let traces_dir = dir.join("traces");
        capture_workloads(
            &traces_dir,
            std::slice::from_ref(&workload),
            SIM_SEED,
            ops_needed(&scale),
            TraceDialect::Text,
        )
        .unwrap();

        let campaign_spec = trace_sweep_spec("prop", &traces_dir, 1, scale);
        let mut campaign = Campaign::open(&dir.join("store"), campaign_spec).unwrap();
        let report = campaign.run().unwrap();
        let grid = report.grid("traces");
        prop_assert_eq!(report.stats.simulated, report.stats.unique_jobs);

        let direct = Grid::compute_with(
            &[workload],
            &[Mechanism::RefAb, Mechanism::Dsarp],
            &[Density::G8],
            &scale,
            |m, d| SimConfig::paper(*m, *d).with_cores(1),
        );
        prop_assert_eq!(grid.rows().len(), direct.rows().len());
        for row in direct.rows() {
            // Same cells under different workload names: the captured file
            // is named `wl-c00`, the synthetic mix `wl`.
            let got = grid
                .get("wl-c00", row.mechanism, row.density)
                .unwrap_or_else(|| panic!("missing traced cell for {}", row.mechanism.label()));
            prop_assert_eq!(got.ws, row.ws, "{} ws", row.mechanism.label());
            prop_assert_eq!(got.hs, row.hs, "{} hs", row.mechanism.label());
            prop_assert_eq!(got.max_slowdown, row.max_slowdown);
            prop_assert_eq!(got.energy_nj, row.energy_nj);
            prop_assert_eq!(got.total_ipc, row.total_ipc);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(3))]

    /// Full-catalogue exactness: archetypes with stores (and their
    /// bubbles) and dependent loads — inexpressible in plain text —
    /// replay cell-for-cell equal to the synthetic computation via both
    /// lossless dialects, and the two dialects reduce to identical grids
    /// while keying the cache on different content hashes.
    #[test]
    fn full_catalogue_capture_replays_exactly_in_lossless_dialects(
        mem_interval in 2u32..8,
        store_sel in 0usize..3,
        dep_sel in 0usize..3,
    ) {
        let scale = tiny_scale();
        let spec: &'static BenchmarkSpec = Box::leak(Box::new(BenchmarkSpec {
            name: Box::leak(format!("full-{mem_interval}-{store_sel}-{dep_sel}").into_boxed_str()),
            mem_interval,
            store_frac: [0.15, 0.3, 0.5][store_sel],
            stream_frac: 0.4,
            num_streams: 2,
            stream_stride: 64,
            working_set: 8 << 20,
            hot_frac: 0.3,
            hot_bytes: 128 << 10,
            dep_frac: [0.1, 0.25, 0.4][dep_sel],
            class: MemClass::Intensive,
        }));
        let workload = Workload {
            name: "wl".into(),
            category: IntensityCategory::P100,
            benchmarks: vec![spec],
        };
        let dir = tmpdir(&format!("full-{mem_interval}-{store_sel}-{dep_sel}"));
        let direct = Grid::compute_with(
            std::slice::from_ref(&workload),
            &[Mechanism::RefAb, Mechanism::Dsarp],
            &[Density::G8],
            &scale,
            |m, d| SimConfig::paper(*m, *d).with_cores(1),
        );

        let mut renders = Vec::new();
        for (dialect, glob) in [(TraceDialect::TextExt, "*.trace"), (TraceDialect::Bin, "*.dtrace")] {
            let traces_dir = dir.join(dialect.label());
            capture_workloads(
                &traces_dir,
                std::slice::from_ref(&workload),
                SIM_SEED,
                ops_needed(&scale),
                dialect,
            )
            .unwrap();
            let bundles = resolve_trace_dir(&traces_dir, glob, 1).unwrap();
            prop_assert_eq!(bundles[0].traces[0].dialect, dialect);
            prop_assert_eq!(
                bundles[0].traces[0].entries,
                ops_needed(&scale),
                "lossless dialects store one entry per op, no attachment padding"
            );
            let campaign_spec =
                trace_sweep_spec_glob(&format!("full-{}", dialect.label()), &traces_dir, glob, 1, scale);
            let report = Campaign::open(&dir.join(format!("store-{dialect}")), campaign_spec)
                .unwrap()
                .run()
                .unwrap();
            prop_assert_eq!(report.stats.simulated, report.stats.unique_jobs);
            let grid = report.grid("traces");
            for row in direct.rows() {
                let got = grid
                    .get("wl-c00", row.mechanism, row.density)
                    .unwrap_or_else(|| panic!("missing {dialect} cell for {}", row.mechanism.label()));
                prop_assert_eq!(got.ws, row.ws, "{} {} ws", dialect, row.mechanism.label());
                prop_assert_eq!(got.hs, row.hs, "{} {} hs", dialect, row.mechanism.label());
                prop_assert_eq!(got.max_slowdown, row.max_slowdown);
                prop_assert_eq!(got.energy_nj, row.energy_nj);
                prop_assert_eq!(got.total_ipc, row.total_ipc);
            }
            renders.push(render(&report));
        }
        prop_assert_eq!(&renders[0], &renders[1], "text-ext and bin grids must be identical");

        // Identical op streams, different encodings: the cache keys on the
        // file bytes, so the dialects never alias each other's cells.
        let ext_hash = resolve_trace_dir(&dir.join("text-ext"), "*.trace", 1).unwrap()[0].traces[0]
            .content_hash;
        let bin_hash = resolve_trace_dir(&dir.join("bin"), "*.dtrace", 1).unwrap()[0].traces[0]
            .content_hash;
        prop_assert_ne!(ext_hash, bin_hash);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn truncated_trace_is_rejected_with_an_error_naming_the_file() {
    let dir = tmpdir("torn");
    let traces_dir = dir.join("traces");
    let wls = dsarp_workloads::mixes::intensive_mixes(1, 1)[..2].to_vec();
    capture_workloads(&traces_dir, &wls, SIM_SEED, 2_000, TraceDialect::Text).unwrap();

    // Tear the second file mid-line: strip the trailing newline plus a few
    // bytes, leaving a shorter-but-parseable final address — exactly the
    // corruption that would silently simulate wrong addresses.
    let victim = traces_dir.join(format!("{}-c00.trace", wls[1].name));
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();

    let spec = trace_sweep_spec("torn", &traces_dir, 1, tiny_scale());
    let err = Campaign::open(&dir.join("store"), spec)
        .unwrap()
        .run()
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}-c00.trace", wls[1].name)) && msg.contains("truncated"),
        "error must name the torn file: {msg}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupting_one_trace_recomputes_only_that_traces_cells() {
    let dir = tmpdir("corrupt");
    let traces_dir = dir.join("traces");
    let wls = dsarp_workloads::mixes::intensive_mixes(1, 1)[..2].to_vec();
    capture_workloads(&traces_dir, &wls, SIM_SEED, 2_000, TraceDialect::Text).unwrap();
    let store = dir.join("store");
    let spec = || trace_sweep_spec("corrupt", &traces_dir, 1, tiny_scale());

    // Cold: 2 alone + 2 workloads x 2 mechanisms grids = 6 unique jobs.
    let cold = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert_eq!(cold.stats.unique_jobs, 6);
    assert_eq!(cold.stats.simulated, 6);

    // Warm: zero simulation, byte-identical reduce.
    let warm = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert_eq!(warm.stats.simulated, 0, "warm replay must be all hits");
    assert_eq!(render(&cold), render(&warm));

    // Appending one line to the second trace changes its content hash:
    // exactly its alone job and its 2 grid cells recompute.
    let victim = traces_dir.join(format!("{}-c00.trace", wls[1].name));
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes.extend_from_slice(b"7 0x1c0\n");
    std::fs::write(&victim, bytes).unwrap();

    let touched = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert_eq!(touched.stats.unique_jobs, 6);
    assert_eq!(
        touched.stats.simulated, 3,
        "1 alone + 2 grid cells of the edited trace"
    );
    assert_eq!(touched.stats.cache_hits, 3);

    // The untouched trace's rows are bit-identical across runs.
    let untouched = format!("{}-c00", wls[0].name);
    for m in [Mechanism::RefAb, Mechanism::Dsarp] {
        assert_eq!(
            warm.grid("traces").get(&untouched, m, Density::G8),
            touched.grid("traces").get(&untouched, m, Density::G8),
            "untouched trace cells must not change"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn renaming_traces_keeps_the_cache_warm() {
    let dir = tmpdir("rename");
    let traces_dir = dir.join("traces");
    let wls = dsarp_workloads::mixes::intensive_mixes(1, 1)[..1].to_vec();
    capture_workloads(&traces_dir, &wls, SIM_SEED, 2_000, TraceDialect::Text).unwrap();
    let store = dir.join("store");
    let spec = || trace_sweep_spec("rename", &traces_dir, 1, tiny_scale());

    let cold = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert!(cold.stats.simulated > 0);

    let old = traces_dir.join(format!("{}-c00.trace", wls[0].name));
    std::fs::rename(&old, traces_dir.join("renamed.trace")).unwrap();
    let warm = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert_eq!(
        warm.stats.simulated, 0,
        "fingerprints key on content, not path"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flipping_one_binary_record_byte_recomputes_only_that_traces_cells() {
    let dir = tmpdir("bin-corrupt");
    let traces_dir = dir.join("traces");
    let wls = dsarp_workloads::mixes::intensive_mixes(1, 1)[..2].to_vec();
    capture_workloads(&traces_dir, &wls, SIM_SEED, 2_000, TraceDialect::Bin).unwrap();
    let store = dir.join("store");
    let spec = || trace_sweep_spec_glob("bin-corrupt", &traces_dir, "*.dtrace", 1, tiny_scale());

    // Cold: 2 alone + 2 workloads x 2 mechanisms grids = 6 unique jobs.
    let cold = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert_eq!((cold.stats.unique_jobs, cold.stats.simulated), (6, 6));
    let warm = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert_eq!(warm.stats.simulated, 0, "warm replay must be all hits");
    assert_eq!(render(&cold), render(&warm));

    // Flip one byte inside a mid-file record: same length, same record
    // count, different content — exactly that trace's 3 cells recompute.
    let victim = traces_dir.join(format!("{}-c00.dtrace", wls[1].name));
    let mut bytes = std::fs::read(&victim).unwrap();
    let flip_at = dsarp_cpu::trace_v1::BIN_HEADER_LEN + 40 * dsarp_cpu::trace_v1::BIN_RECORD_LEN;
    bytes[flip_at] ^= 0x04; // an address bit, always a valid record
    std::fs::write(&victim, &bytes).unwrap();
    let touched = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert_eq!(touched.stats.unique_jobs, 6);
    assert_eq!(
        touched.stats.simulated, 3,
        "1 alone + 2 grid cells of the flipped trace"
    );
    assert_eq!(touched.stats.cache_hits, 3);
    let untouched = format!("{}-c00", wls[0].name);
    for m in [Mechanism::RefAb, Mechanism::Dsarp] {
        assert_eq!(
            warm.grid("traces").get(&untouched, m, Density::G8),
            touched.grid("traces").get(&untouched, m, Density::G8),
            "untouched trace cells must not change"
        );
    }

    // A torn binary tail (mid-record cut) is rejected naming the file —
    // the mirror of the text `Truncated` contract.
    std::fs::write(&victim, &bytes[..bytes.len() - 5]).unwrap();
    let err = Campaign::open(&store, spec()).unwrap().run().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}-c00.dtrace", wls[1].name)) && msg.contains("truncated"),
        "torn tail must be rejected naming the file: {msg}"
    );

    // A header flip in the record count desynchronizes the declared
    // length from the file: rejected naming the file, never resized.
    let mut garbled = bytes.clone();
    garbled[8] ^= 0x01; // count field low byte
    std::fs::write(&victim, &garbled).unwrap();
    let err = Campaign::open(&store, spec()).unwrap().run().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}-c00.dtrace", wls[1].name))
            && (msg.contains("truncated") || msg.contains("malformed binary")),
        "a count flip must be rejected naming the file: {msg}"
    );

    // A magic flip stops the file from detecting as binary at all; it is
    // still rejected with an error naming the file (as non-trace text).
    let mut demagicked = bytes.clone();
    demagicked[2] ^= 0xff;
    std::fs::write(&victim, &demagicked).unwrap();
    let err = Campaign::open(&store, spec()).unwrap().run().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}-c00.dtrace", wls[1].name)),
        "bad magic must be rejected naming the file: {msg}"
    );

    // Restoring the flipped-record bytes makes the store warm again.
    std::fs::write(&victim, &bytes).unwrap();
    let restored = Campaign::open(&store, spec()).unwrap().run().unwrap();
    assert_eq!(restored.stats.simulated, 0, "records survive the refusals");
    let _ = std::fs::remove_dir_all(dir);
}

/// `trace-convert` CLI: text → bin suites reduce to identical grids, and
/// ext ↔ bin conversions are byte-stable round trips.
#[test]
fn cli_trace_convert_is_byte_stable_and_preserves_grids() {
    let dir = tmpdir("cli-convert");
    let text_dir = dir.join("text");
    let wls = dsarp_workloads::mixes::intensive_mixes(1, 1)[..2].to_vec();
    capture_workloads(&text_dir, &wls, SIM_SEED, 2_000, TraceDialect::Text).unwrap();

    // Convert every text capture to binary (and onward to text-ext and
    // back) through the CLI.
    let bin_dir = dir.join("bin");
    std::fs::create_dir_all(&bin_dir).unwrap();
    let convert = |from: &Path, to: &Path| {
        let mut cmd = Command::new(BIN);
        cmd.args([
            "trace-convert",
            "--from",
            from.to_str().unwrap(),
            "--to",
            to.to_str().unwrap(),
        ]);
        run_success(cmd, "trace-convert")
    };
    for wl in &wls {
        let from = text_dir.join(format!("{}-c00.trace", wl.name));
        let to = bin_dir.join(format!("{}-c00.dtrace", wl.name));
        let out = convert(&from, &to);
        assert!(out.contains("-> ") && out.contains("bin"), "{out}");

        // bin -> text-ext -> bin round-trips byte-stably.
        let ext = dir.join("roundtrip.trace");
        let bin2 = dir.join("roundtrip.dtrace");
        convert(&to, &ext);
        convert(&ext, &bin2);
        assert_eq!(
            std::fs::read(&to).unwrap(),
            std::fs::read(&bin2).unwrap(),
            "ext <-> bin must round-trip byte-identically"
        );
    }

    // The converted binary suite reduces to grids identical to the text
    // suite's (same op streams, different cache keys).
    let text_report = Campaign::open(
        &dir.join("store-text"),
        trace_sweep_spec("cli-convert-text", &text_dir, 1, tiny_scale()),
    )
    .unwrap()
    .run()
    .unwrap();
    let bin_report = Campaign::open(
        &dir.join("store-bin"),
        trace_sweep_spec_glob("cli-convert-bin", &bin_dir, "*.dtrace", 1, tiny_scale()),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(bin_report.stats.simulated, bin_report.stats.unique_jobs);
    assert_eq!(
        render(&text_report),
        render(&bin_report),
        "converted suite must reduce to identical grids"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn compact_refuses_and_names_a_missing_trace() {
    let dir = tmpdir("compact-missing");
    let traces_dir = dir.join("traces");
    let wls = dsarp_workloads::mixes::intensive_mixes(1, 1)[..1].to_vec();
    capture_workloads(&traces_dir, &wls, SIM_SEED, 2_000, TraceDialect::Text).unwrap();
    let store = dir.join("store");
    let spec = trace_sweep_spec("compact-missing", &traces_dir, 1, tiny_scale());
    Campaign::open(&store, spec.clone()).unwrap().run().unwrap();
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();

    // With the trace torn the spec cannot enumerate its jobs; compact must
    // refuse — naming the file — rather than GC every record as orphaned.
    let victim = traces_dir.join(format!("{}-c00.trace", wls[0].name));
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
    let out = Command::new(BIN)
        .args([
            "compact",
            "--spec",
            spec_path.to_str().unwrap(),
            "--campaign",
            store.to_str().unwrap(),
            "--to",
            dir.join("compacted").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "compact must refuse");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refusing to compact") && stderr.contains("-c00.trace"),
        "compact must name the missing trace:\n{stderr}"
    );
    // Nothing was deleted: restoring the trace makes the store warm again.
    std::fs::write(&victim, bytes).unwrap();
    let warm = Campaign::open(&store, spec).unwrap().run().unwrap();
    assert_eq!(warm.stats.simulated, 0, "records must survive the refusal");
    let _ = std::fs::remove_dir_all(dir);
}

/// Waits for a subprocess, asserting success; returns stdout.
fn run_success(mut cmd: Command, what: &str) -> String {
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{what} failed ({}):\n--- stdout\n{}\n--- stderr\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The ISSUE acceptance path, end to end through the CLI.
#[test]
fn cli_trace_dir_spec_runs_cold_resumes_warm_and_workers_merge_identically() {
    let dir = tmpdir("cli-accept");
    let traces_dir = dir.join("traces");

    // 1. Self-generate a suite: 2 mixes x 2 cores = 4 trace files.
    let mut capture = Command::new(BIN);
    capture.args([
        "trace-capture",
        "--traces",
        traces_dir.to_str().unwrap(),
        "--count",
        "2",
        "--trace-cores",
        "2",
        "--ops",
        "3000",
    ]);
    let out = run_success(capture, "trace-capture");
    assert!(out.contains("4 files"), "{out}");
    let bundles = resolve_trace_dir(&traces_dir, "*.trace", 2).unwrap();
    assert_eq!(bundles.len(), 2);

    // 2. A --spec JSON with a TraceDir sweep.
    let spec = trace_sweep_spec("cli-accept", &traces_dir, 2, tiny_scale());
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let store_single = dir.join("store-single");
    let run_args = |store: &Path, out: &Path| -> Vec<String> {
        [
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--campaign",
            store.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };

    // 3. Cold single-process run, then a warm resume: zero re-simulation.
    let mut cold = Command::new(BIN);
    cold.args(run_args(&store_single, &dir.join("out-cold")));
    let cold_out = run_success(cold, "cold run");
    assert!(cold_out.contains("0 cached"), "{cold_out}");
    let mut warm = Command::new(BIN);
    warm.args(run_args(&store_single, &dir.join("out-warm")));
    let warm_out = run_success(warm, "warm run");
    assert!(
        warm_out.contains("0 simulated"),
        "warm resume must re-simulate nothing: {warm_out}"
    );
    let csv = |out: &str| dir.join(out).join("grid_traces.csv");
    let cold_csv = std::fs::read(csv("out-cold")).unwrap();
    assert_eq!(
        cold_csv,
        std::fs::read(csv("out-warm")).unwrap(),
        "warm reduce must be byte-identical"
    );

    // 4. worker x2 + merge into a fresh store: byte-identical output.
    let store_dist = dir.join("store-dist");
    let worker = |owner: &str| {
        let mut cmd = Command::new(BIN);
        cmd.args([
            "worker",
            "--spec",
            spec_path.to_str().unwrap(),
            "--campaign",
            store_dist.to_str().unwrap(),
            "--owner",
            owner,
            "--ttl-ms",
            "5000",
            "--poll-ms",
            "50",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
        cmd
    };
    let a = worker("tw-a").spawn().unwrap();
    let b = worker("tw-b").spawn().unwrap();
    for (child, name) in [(a, "tw-a"), (b, "tw-b")] {
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "worker {name} failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut merge = Command::new(BIN);
    merge.args([
        "merge",
        "--spec",
        spec_path.to_str().unwrap(),
        "--campaign",
        store_dist.to_str().unwrap(),
        "--out",
        dir.join("out-merge").to_str().unwrap(),
    ]);
    let merge_out = run_success(merge, "merge");
    assert!(merge_out.contains("0 simulated"), "{merge_out}");
    assert_eq!(
        cold_csv,
        std::fs::read(csv("out-merge")).unwrap(),
        "worker x2 + merge must be byte-identical to the single-process run"
    );
    let _ = std::fs::remove_dir_all(dir);
}
