//! End-to-end properties of the campaign engine, including the acceptance
//! criteria: an identical re-run performs zero simulation, and a campaign
//! killed mid-run resumes to results byte-identical to an uninterrupted
//! run.

use dsarp_campaign::{
    Campaign, CampaignClient, CampaignReport, CampaignSpec, EventLog, LocalBackend, SweepSpec,
    WorkerOptions, WorkloadSet,
};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::harness::{Grid, Scale};
use dsarp_sim::experiments::report;
use dsarp_sim::SimConfig;
use std::path::PathBuf;
use std::sync::Arc;

fn tiny_scale() -> Scale {
    Scale {
        dram_cycles: 2_000,
        alone_cycles: 1_000,
        per_category: 1,
        threads: 2,
        warmup_ops: 500,
    }
}

fn tiny_spec() -> CampaignSpec {
    CampaignSpec::new("tiny", tiny_scale())
        .with_sweep(SweepSpec::new(
            "demo",
            WorkloadSet::Intensive { cores: 2 },
            &[Mechanism::RefAb, Mechanism::Dsarp],
            &[Density::G8],
        ))
        .with_sweep(SweepSpec::new(
            "demo-extended",
            WorkloadSet::Intensive { cores: 2 },
            &[Mechanism::RefAb, Mechanism::RefPb],
            &[Density::G8],
        ))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dsarp-campaign-int-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

#[test]
fn rerun_performs_zero_simulation_and_is_byte_identical() {
    let dir = tmpdir("rerun");
    let first = Campaign::open(&dir, tiny_spec()).unwrap().run().unwrap();
    assert!(first.stats.simulated > 0, "cold run must simulate");
    assert_eq!(first.stats.cache_hits, 0);
    // The two sweeps share the RefAb cells and all alone jobs.
    assert!(
        first.stats.deduped_in_flight() > 0,
        "in-flight dedup must kick in"
    );

    let second = Campaign::open(&dir, tiny_spec()).unwrap().run().unwrap();
    assert_eq!(
        second.stats.simulated, 0,
        "warm re-run must not simulate at all"
    );
    assert_eq!(second.stats.cache_hits, second.stats.unique_jobs);
    assert_eq!(
        render(&first),
        render(&second),
        "artifacts must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn killed_run_resumes_byte_identical() {
    // Reference: one uninterrupted run.
    let ref_dir = tmpdir("kill-ref");
    let reference = Campaign::open(&ref_dir, tiny_spec())
        .unwrap()
        .run()
        .unwrap();

    // "Killed" run: complete store, then destroy part of it — delete one
    // whole shard and tear the final line of another, exactly what a
    // mid-append kill leaves behind.
    let dir = tmpdir("kill");
    Campaign::open(&dir, tiny_spec()).unwrap().run().unwrap();
    let shards_dir = dir.join("tiny").join("shards");
    let mut shard_files: Vec<PathBuf> = std::fs::read_dir(&shards_dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    shard_files.sort();
    assert!(
        shard_files.len() >= 2,
        "need >= 2 shards to damage, got {}",
        shard_files.len()
    );
    std::fs::remove_file(&shard_files[0]).unwrap();
    let torn = std::fs::read_to_string(&shard_files[1]).unwrap();
    let keep = torn.len() / 2; // cuts mid-line
    std::fs::write(&shard_files[1], &torn[..keep.max(1)]).unwrap();

    let resumed = Campaign::open(&dir, tiny_spec()).unwrap().run().unwrap();
    assert!(resumed.stats.simulated > 0, "damaged records must re-run");
    assert!(
        resumed.stats.simulated < resumed.stats.unique_jobs,
        "surviving records must be reused"
    );
    assert_eq!(
        render(&reference),
        render(&resumed),
        "resumed campaign must equal an uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn partial_campaign_then_full_reuses_overlap() {
    let dir = tmpdir("partial");
    // First a narrower campaign (as if the box went down before the
    // remaining sweeps were added), then the full one.
    let narrow = tiny_spec().filtered(&["demo-extended"]);
    let narrow_report = Campaign::open(&dir, {
        let mut n = narrow;
        n.name = "tiny".into(); // same store
        n
    })
    .unwrap()
    .run()
    .unwrap();
    let full = Campaign::open(&dir, tiny_spec()).unwrap().run().unwrap();
    assert!(full.stats.cache_hits >= narrow_report.stats.unique_jobs);
    assert!(full.stats.simulated > 0, "the new sweep's cells still run");

    // And the combined result matches a from-scratch full run.
    let fresh_dir = tmpdir("partial-fresh");
    let fresh = Campaign::open(&fresh_dir, tiny_spec())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(render(&fresh), render(&full));
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(fresh_dir);
}

#[test]
fn campaign_grid_matches_direct_grid_compute() {
    let scale = tiny_scale();
    let spec = CampaignSpec::new("parity", scale).with_sweep(SweepSpec::new(
        "demo",
        WorkloadSet::Intensive { cores: 2 },
        &[Mechanism::RefAb, Mechanism::Dsarp],
        &[Density::G8],
    ));
    let dir = tmpdir("parity");
    let report = Campaign::open(&dir, spec).unwrap().run().unwrap();
    let campaign_grid = report.grid("demo");

    let workloads = scale.intensive_workloads_with_seed(2, spec_seed());
    let direct = Grid::compute_with(
        &workloads,
        &[Mechanism::RefAb, Mechanism::Dsarp],
        &[Density::G8],
        &scale,
        |m, d| SimConfig::paper(*m, *d).with_cores(2),
    );
    assert_eq!(campaign_grid.rows().len(), direct.rows().len());
    for row in direct.rows() {
        let got = campaign_grid
            .get(&row.workload, row.mechanism, row.density)
            .unwrap_or_else(|| panic!("campaign grid missing {}", row.workload));
        assert_eq!(got, row, "campaign cell must equal the direct computation");
    }
    let _ = std::fs::remove_dir_all(dir);
}

fn spec_seed() -> u64 {
    dsarp_sim::experiments::harness::WORKLOAD_SEED
}

/// Every record line of a campaign store, sorted — append order across
/// worker threads is racy, so byte-identity is asserted on the sorted
/// line set, not on raw shard files.
fn sorted_record_lines(campaign_dir: &std::path::Path) -> Vec<String> {
    let mut lines = Vec::new();
    for shard in 0..dsarp_campaign::store::SHARDS {
        let path = dsarp_campaign::Store::shard_file(campaign_dir, shard);
        if let Ok(text) = std::fs::read_to_string(path) {
            lines.extend(text.lines().map(|l| format!("{shard:02} {l}")));
        }
    }
    lines.sort();
    lines
}

/// The acceptance criterion for `--telemetry`: sampling is observationally
/// pure. The record lines and grids of a telemetry run are byte-identical
/// to a plain run's; the telemetry lands exclusively in sidecar files, one
/// parseable `SimTelemetry` per simulated cell.
#[test]
fn telemetry_sidecars_leave_records_and_grids_byte_identical() {
    let plain_dir = tmpdir("tele-off");
    let tele_dir = tmpdir("tele-on");
    let plain = Campaign::open(&plain_dir, tiny_spec())
        .unwrap()
        .run()
        .unwrap();
    let mut campaign = Campaign::open(&tele_dir, tiny_spec()).unwrap();
    campaign.telemetry = true;
    let tele = campaign.run().unwrap();
    assert!(plain.stats.simulated > 0 && tele.stats.simulated == plain.stats.simulated);

    assert_eq!(
        render(&plain),
        render(&tele),
        "grids must be byte-identical with telemetry on"
    );
    assert_eq!(
        sorted_record_lines(&plain_dir.join("tiny")),
        sorted_record_lines(&tele_dir.join("tiny")),
        "record lines must be byte-identical with telemetry on"
    );

    let sidecars: Vec<_> = std::fs::read_dir(tele_dir.join("tiny").join("telemetry"))
        .expect("telemetry sidecar dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    assert_eq!(
        sidecars.len(),
        tele.stats.simulated,
        "one sidecar per simulated cell"
    );
    for path in sidecars {
        let text = std::fs::read_to_string(&path).unwrap();
        let telemetry: dsarp_sim::SimTelemetry = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("unparseable sidecar {}: {e}", path.display()));
        assert!(
            telemetry.dram_cycles > 0,
            "sidecar {} must carry a sampled run",
            path.display()
        );
    }
    assert!(
        !plain_dir.join("tiny").join("telemetry").exists(),
        "a plain run must not create the sidecar directory"
    );
    let _ = std::fs::remove_dir_all(plain_dir);
    let _ = std::fs::remove_dir_all(tele_dir);
}

/// The sorted `label`s of every `job_simulated` line of a JSONL event log.
fn simulated_labels(events: &std::path::Path) -> Vec<String> {
    let mut labels: Vec<String> = std::fs::read_to_string(events)
        .unwrap()
        .lines()
        .map(|line| serde_json::from_str::<serde_json::Value>(line).unwrap())
        .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("job_simulated"))
        .map(|e| e.get("label").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    labels.sort();
    labels
}

/// `(simulated, warmups)` of the one `campaign_simulated` line of a JSONL
/// event log.
fn simulated_and_warmups(events: &std::path::Path) -> (u64, u64) {
    let text = std::fs::read_to_string(events).unwrap();
    let mut lines = text
        .lines()
        .map(|line| serde_json::from_str::<serde_json::Value>(line).unwrap())
        .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("campaign_simulated"));
    let event = lines.next().expect("a campaign_simulated line");
    assert!(lines.next().is_none(), "one campaign_simulated line");
    let count = |key: &str| event.get(key).and_then(|v| v.as_u64()).unwrap();
    (count("simulated"), count("warmups"))
}

/// Runs `spec` cold with a JSONL event log: the rendered grids, the
/// sorted record lines, and the `(simulated, warmups)` the log's
/// `campaign_simulated` line counts (which the report's stats must match).
fn cold_run_counting_warmups(tag: &str, spec: CampaignSpec) -> (String, Vec<String>, (u64, u64)) {
    let dir = tmpdir(tag);
    let events = dir.join("events.jsonl");
    let name = spec.name.clone();
    let mut campaign = Campaign::open(&dir, spec).unwrap();
    campaign.set_events(Arc::new(EventLog::to_path(&events).unwrap()));
    let report = campaign.run().unwrap();
    let counted = simulated_and_warmups(&events);
    assert_eq!(
        counted,
        (report.stats.simulated as u64, report.stats.warmups as u64)
    );
    let records = sorted_record_lines(&dir.join(name));
    let _ = std::fs::remove_dir_all(dir);
    (render(&report), records, counted)
}

/// Every mechanism and density of a mix, and every density of an
/// alone-IPC benchmark, start from one functional warm-up: a cold run of
/// 2 mixes x 3 mechanisms x 2 densities warms up once per distinct mix
/// plus once per distinct benchmark, at one thread or two, and the two
/// runs' grids and record lines are byte-identical.
#[test]
fn one_warmup_per_workload_at_any_thread_count() {
    let spec = |threads| {
        let scale = Scale {
            threads,
            ..tiny_scale()
        };
        CampaignSpec::new("warm", scale).with_sweep(SweepSpec::new(
            "mixes",
            WorkloadSet::Intensive { cores: 2 },
            &[Mechanism::RefAb, Mechanism::Darp, Mechanism::Dsarp],
            &[Density::G8, Density::G32],
        ))
    };
    let mixes = tiny_scale().intensive_workloads_with_seed(2, spec_seed());
    assert_eq!(mixes.len(), 2);
    let names = |wl: &dsarp_workloads::Workload| -> Vec<&'static str> {
        wl.benchmarks.iter().map(|b| b.name).collect()
    };
    let distinct_mixes: std::collections::HashSet<_> = mixes.iter().map(names).collect();
    let benchmarks: std::collections::HashSet<_> = mixes.iter().flat_map(names).collect();
    let simulated = 2 * 3 * 2 + 2 * benchmarks.len() as u64;
    let warmups = (distinct_mixes.len() + benchmarks.len()) as u64;

    let one = cold_run_counting_warmups("warmups-1", spec(1));
    let two = cold_run_counting_warmups("warmups-2", spec(2));
    assert_eq!(one.2, (simulated, warmups));
    assert_eq!(one, two, "nothing may depend on the thread count");
}

/// The perf ledger's `campaign_cold` spec — the paper workload set (one
/// mix per category) x five mechanisms at 32 Gb, seeded as the ledger
/// seeds it — at a tiny run length: 25 cells and 21 alone-IPC jobs take
/// 5 + 21 warm-ups.
#[test]
fn ledger_cold_campaign_warms_up_26_times_for_46_jobs() {
    const LEDGER_SEED: u64 = 0xD5A2_2014;
    let mut sweep = SweepSpec::new(
        "ledger",
        WorkloadSet::Paper,
        &[
            Mechanism::RefAb,
            Mechanism::RefPb,
            Mechanism::Darp,
            Mechanism::SarpPb,
            Mechanism::Dsarp,
        ],
        &[Density::G32],
    );
    sweep.sim_seed = Some(LEDGER_SEED);
    let mut spec = CampaignSpec::new("bench", tiny_scale()).with_sweep(sweep);
    spec.workload_seed = LEDGER_SEED;
    let (_, _, counted) = cold_run_counting_warmups("warmups-ledger", spec);
    assert_eq!(counted, (46, 26));
}

/// The single-process executor and a distributed merge over a
/// [`LocalBackend`] are one simulate-and-persist path: the same spec
/// through either yields the same grids, counters, shard lines and
/// simulated cells.
#[test]
fn merge_over_a_local_backend_equals_a_single_process_run() {
    let run_dir = tmpdir("path-run");
    let merge_dir = tmpdir("path-merge");
    let run_events = run_dir.join("events.jsonl");
    let merge_events = merge_dir.join("events.jsonl");

    let mut campaign = Campaign::open(&run_dir, tiny_spec()).unwrap();
    campaign.set_events(Arc::new(EventLog::to_path(&run_events).unwrap()));
    let run = campaign.run().unwrap();

    let backend = LocalBackend::open(&merge_dir, "tiny").unwrap();
    let mut client = CampaignClient::new(tiny_spec());
    client.set_events(Arc::new(EventLog::to_path(&merge_events).unwrap()));
    let (merged, worker) = client.merge(&backend, &WorkerOptions::default()).unwrap();

    assert_eq!(
        render(&run),
        render(&merged),
        "grids must be byte-identical"
    );
    assert!(run.stats.simulated > 0);
    assert_eq!(
        (run.stats.cells, run.stats.unique_jobs, run.stats.simulated),
        (
            merged.stats.cells,
            merged.stats.unique_jobs,
            merged.stats.simulated
        )
    );
    assert_eq!(worker.simulated, merged.stats.simulated);
    assert_eq!(
        sorted_record_lines(&run_dir.join("tiny")),
        sorted_record_lines(&merge_dir.join("tiny")),
        "shard lines must be byte-identical"
    );
    let labels = simulated_labels(&run_events);
    assert_eq!(labels.len(), run.stats.simulated);
    assert_eq!(labels, simulated_labels(&merge_events));
    let _ = std::fs::remove_dir_all(run_dir);
    let _ = std::fs::remove_dir_all(merge_dir);
}

/// Reads every telemetry sidecar of a campaign as `(file name, bytes)`,
/// sorted by name (names are job fingerprints, so order is stable).
fn sidecar_bytes(campaign_dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(campaign_dir.join("telemetry"))
        .expect("telemetry sidecar dir")
        .filter_map(Result::ok)
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// FNV-1a-128 fingerprints of everything a campaign run leaves behind:
/// the rendered grid CSVs, the sorted record lines, and the concatenated
/// telemetry sidecars (name-tagged). Any observable drift in scheduling,
/// stats, or serialization shows up as a changed fingerprint.
fn snapshot_fingerprints(campaign_dir: &std::path::Path, report: &CampaignReport) -> [String; 3] {
    use dsarp_campaign::fingerprint::fingerprint_bytes;
    let grids = fingerprint_bytes(render(report).as_bytes()).to_string();
    let records =
        fingerprint_bytes(sorted_record_lines(campaign_dir).join("\n").as_bytes()).to_string();
    let mut blob = Vec::new();
    for (name, bytes) in sidecar_bytes(campaign_dir) {
        blob.extend_from_slice(name.as_bytes());
        blob.push(0);
        blob.extend_from_slice(&bytes);
    }
    [grids, records, fingerprint_bytes(&blob).to_string()]
}

/// The purity pin for the indexed FR-FCFS scheduler: the Table-3 2-core
/// paper subset must reproduce the *exact* artifacts the pre-index scan
/// scheduler produced — grids, sorted record lines, and telemetry
/// sidecars all hash to the snapshots captured before the per-bank index
/// landed, under both skip-ahead and forced per-cycle stepping. A change
/// to FR-FCFS tie-breaking, RunStats, or sidecar serialization trips
/// this even if the two stepping modes still agree with each other.
#[test]
fn paper_subset_matches_pre_index_baseline_snapshots() {
    const BASELINE: [&str; 3] = [
        "c96c8898186338b1cf52fe436a6cb296",
        "547761356fb6d14e680e09c773c39c0d",
        "d243226e6fd262317cb7e4fd9e18fd25",
    ];
    for per_cycle in [false, true] {
        let dir = tmpdir(if per_cycle {
            "snap-percycle"
        } else {
            "snap-skip"
        });
        let mut s = CampaignSpec::paper(tiny_scale()).filtered(&["table3/cores2"]);
        s.name = "paper-subset".into();
        let mut campaign = Campaign::open(&dir, s).unwrap();
        campaign.telemetry = true;
        campaign.per_cycle = per_cycle;
        let report = campaign.run().unwrap();
        let got = snapshot_fingerprints(&dir.join("paper-subset"), &report);
        println!("snapshot per_cycle={per_cycle}: {got:?}");
        for (i, (got, want)) in got.iter().zip(BASELINE).enumerate() {
            assert_eq!(
                got, want,
                "artifact {i} (0=grids 1=records 2=sidecars) drifted from the \
                 pre-index scheduler baseline (per_cycle={per_cycle})"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The exactness property the event-driven loop is pinned by: a
/// `CampaignSpec::paper`-subset grid run with skip-ahead is
/// observationally identical — every record line (RunStats cell for
/// cell), every grid CSV, every telemetry sidecar byte — to the same
/// grid forced through per-cycle stepping.
#[test]
fn skip_ahead_campaign_equals_per_cycle_cell_for_cell() {
    // A real slice of the paper evaluation, kept small enough for CI:
    // Table 3's 2-core sensitivity sweep (REFab vs DSARP on intensive
    // mixes) plus the alone-IPC runs its weighted-speedup cells need.
    let spec = || {
        let mut s = CampaignSpec::paper(tiny_scale()).filtered(&["table3/cores2"]);
        s.name = "paper-subset".into();
        s
    };
    let run = |dir: &PathBuf, per_cycle: bool| {
        let mut campaign = Campaign::open(dir, spec()).unwrap();
        campaign.telemetry = true;
        campaign.per_cycle = per_cycle;
        campaign.run().unwrap()
    };
    let fast_dir = tmpdir("prop-skip");
    let slow_dir = tmpdir("prop-percycle");
    let fast = run(&fast_dir, false);
    let slow = run(&slow_dir, true);
    assert!(fast.stats.simulated > 0, "cold run must simulate");
    assert_eq!(fast.stats.simulated, slow.stats.simulated);

    assert_eq!(
        render(&fast),
        render(&slow),
        "grid CSVs must be identical across stepping modes"
    );
    assert_eq!(
        sorted_record_lines(&fast_dir.join("paper-subset")),
        sorted_record_lines(&slow_dir.join("paper-subset")),
        "record lines must be identical across stepping modes"
    );
    assert_eq!(
        sidecar_bytes(&fast_dir.join("paper-subset")),
        sidecar_bytes(&slow_dir.join("paper-subset")),
        "telemetry sidecars must be identical across stepping modes"
    );
    let _ = std::fs::remove_dir_all(fast_dir);
    let _ = std::fs::remove_dir_all(slow_dir);
}
