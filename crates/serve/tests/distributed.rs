//! Distributed-execution acceptance tests: real `experiments` worker
//! subprocesses drain one campaign store concurrently, one is killed
//! mid-run (SIGKILL, lease left behind), survivors reclaim its stale
//! lease and re-run its unfinished cells, and the merged grids are
//! byte-identical to a fresh single-process `Campaign::run` of the same
//! spec.

use dsarp_campaign::{export, lease, Campaign, CampaignSpec, SweepSpec, WorkloadSet};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::harness::Scale;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn tiny_scale() -> Scale {
    Scale {
        dram_cycles: 2_000,
        alone_cycles: 1_000,
        per_category: 1,
        threads: 2,
        warmup_ops: 500,
    }
}

/// Two overlapping sweeps (~10 unique jobs over most of the 8 shards).
fn dist_spec() -> CampaignSpec {
    CampaignSpec::new("dist", tiny_scale())
        .with_sweep(SweepSpec::new(
            "alpha",
            WorkloadSet::Intensive { cores: 2 },
            &[Mechanism::RefAb, Mechanism::Dsarp],
            &[Density::G8],
        ))
        .with_sweep(SweepSpec::new(
            "beta",
            WorkloadSet::Intensive { cores: 2 },
            &[Mechanism::RefAb, Mechanism::RefPb],
            &[Density::G8],
        ))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dsarp-distributed-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn worker_cmd(store: &Path, spec: &Path, owner: &str) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "worker",
        "--campaign",
        store.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
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
}

/// Waits for `child` to exit successfully, returning its stdout. Panics
/// with full output on failure or after `timeout`.
fn wait_success(mut child: Child, what: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait().unwrap() {
            Some(status) => {
                let out = child.wait_with_output().unwrap();
                let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
                assert!(
                    status.success(),
                    "{what} failed ({status}):\n--- stdout\n{stdout}\n--- stderr\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
                return stdout;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("{what} did not exit within {timeout:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn lock_files(campaign_dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(lease::lease_dir(campaign_dir))
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "lock"))
                .collect()
        })
        .unwrap_or_default()
}

/// The acceptance scenario: >= 2 worker subprocesses on one campaign dir,
/// one killed mid-run, its lease reclaimed, merged output bit-exact with
/// a fresh single-process run.
#[test]
fn killed_worker_is_reclaimed_and_merge_matches_single_process() {
    let dir = tmpdir("kill-reclaim");
    let store = dir.join("store");
    let spec_path = dir.join("spec.json");
    let spec = dist_spec();
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let campaign_dir = store.join(&spec.name);

    // 1. A slow victim worker: 150 ms per job, killed as soon as it holds
    //    a shard lease (well before its first append can land).
    let mut victim_cmd = worker_cmd(&store, &spec_path, "victim");
    victim_cmd.env("DSARP_JOB_DELAY_MS", "150");
    let mut victim = victim_cmd.spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while lock_files(&campaign_dir).is_empty() {
        assert!(
            Instant::now() < deadline,
            "victim never acquired a lease (did it crash on startup?)"
        );
        assert!(
            victim.try_wait().unwrap().is_none(),
            "victim exited before it could be killed mid-run"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.kill().unwrap(); // SIGKILL: no release, lock left behind
    victim.wait().unwrap();
    assert!(
        !lock_files(&campaign_dir).is_empty(),
        "the killed worker must leave its lock on disk"
    );

    // 2. Two surviving workers drain the campaign, reclaiming the stale
    //    lease after its 5 s TTL and re-running the dead worker's cells.
    let a = worker_cmd(&store, &spec_path, "w-a").spawn().unwrap();
    let b = worker_cmd(&store, &spec_path, "w-b").spawn().unwrap();
    let out_a = wait_success(a, "worker w-a", Duration::from_secs(120));
    let out_b = wait_success(b, "worker w-b", Duration::from_secs(120));
    // Parse the actual count from each summary line — a substring check
    // would also match "(0 reclaimed from dead owners)".
    let reclaimed: usize = [&out_a, &out_b]
        .iter()
        .map(|out| parse_summary_count(out, " reclaimed from dead owners"))
        .sum();
    assert!(
        reclaimed >= 1,
        "a survivor must reclaim the victim's stale lease:\n--- w-a\n{out_a}\n--- w-b\n{out_b}"
    );
    assert!(
        lock_files(&campaign_dir).is_empty(),
        "all leases must be released after the drain"
    );

    // Workers never load the store, yet leave the manifest `run` writes.
    let worker_manifest = std::fs::read(campaign_dir.join("manifest.json")).unwrap();

    // 3. Merge: waits for the (already drained) campaign and reduces.
    let merge_out = dir.join("merged");
    let merge = Command::new(BIN)
        .args([
            "merge",
            "--campaign",
            store.to_str().unwrap(),
            "--spec",
            spec_path.to_str().unwrap(),
            "--owner",
            "merge",
            "--ttl-ms",
            "5000",
            "--poll-ms",
            "50",
            "--out",
            merge_out.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    wait_success(merge, "merge", Duration::from_secs(120));

    // 4. Reference: a fresh single-process Campaign::run on the same spec,
    //    exported through the identical writer.
    let ref_store = dir.join("ref-store");
    let ref_out = dir.join("ref-out");
    let report = Campaign::open(&ref_store, dist_spec())
        .unwrap()
        .run()
        .unwrap();
    assert!(report.stats.simulated > 0);
    assert_eq!(
        worker_manifest,
        std::fs::read(ref_store.join(&spec.name).join("manifest.json")).unwrap(),
        "a worker-only store must hold the manifest a single-process run writes"
    );
    for (name, grid) in &report.grids {
        let file = format!("grid_{}", name.replace(['/', ' '], "-"));
        export::write_grid(&ref_out, &file, grid).unwrap();
        let merged = std::fs::read(merge_out.join(format!("{file}.csv")))
            .unwrap_or_else(|e| panic!("merge must write {file}.csv: {e}"));
        let reference = std::fs::read(ref_out.join(format!("{file}.csv"))).unwrap();
        assert_eq!(
            merged, reference,
            "merged grid `{name}` must be byte-identical to a single-process run"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Two concurrent workers from a cold store split the work without
/// overlapping simulations, and `compact --to` afterwards writes a clean
/// copy: the orphan and the torn line are not copied, the source is left
/// as it was, and the copy answers every cell with identical grids.
#[test]
fn concurrent_workers_then_compact_keep_results_identical() {
    let dir = tmpdir("concurrent-compact");
    let store = dir.join("store");
    let spec_path = dir.join("spec.json");
    let spec = dist_spec();
    std::fs::write(&spec_path, spec.to_json()).unwrap();

    let a = worker_cmd(&store, &spec_path, "w-a").spawn().unwrap();
    let b = worker_cmd(&store, &spec_path, "w-b").spawn().unwrap();
    let out_a = wait_success(a, "worker w-a", Duration::from_secs(120));
    let out_b = wait_success(b, "worker w-b", Duration::from_secs(120));

    // Workers partition jobs by shard: together they simulated the full
    // unique-job set exactly once.
    let simulated: usize = [&out_a, &out_b]
        .iter()
        .map(|out| parse_summary_count(out, " jobs simulated"))
        .sum();
    let mut campaign = Campaign::open(&store, dist_spec()).unwrap();
    let warm = campaign.run().unwrap();
    assert_eq!(
        warm.stats.simulated, 0,
        "drain must have completed the store"
    );
    assert_eq!(
        simulated, warm.stats.unique_jobs,
        "workers must split the unique jobs without re-simulating:\n{out_a}\n{out_b}"
    );

    // Plant an orphan record and a torn line, then compact via the CLI.
    let shard0 = store.join("dist/shards/shard-00.jsonl");
    let mut text = std::fs::read_to_string(&shard0).unwrap_or_default();
    text.push_str("{\"fp\":\"00000000000000000000000000000001\",\"kind\":\"alone\",\"label\":\"orphan\",\"alone_ipc\":1.0,\"summary\":null}\n");
    text.push_str("{\"fp\":\"torn");
    std::fs::write(&shard0, &text).unwrap();

    let compacted = dir.join("compacted");
    let compact = Command::new(BIN)
        .args([
            "compact",
            "--campaign",
            store.to_str().unwrap(),
            "--spec",
            spec_path.to_str().unwrap(),
            "--to",
            compacted.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let compact_out = wait_success(compact, "compact", Duration::from_secs(60));
    assert!(
        compact_out.contains("dropped 1 orphans"),
        "compact must report the orphan: {compact_out}"
    );

    assert_eq!(
        std::fs::read_to_string(&shard0).unwrap(),
        text,
        "the source is only read"
    );
    let copied =
        std::fs::read_to_string(compacted.join("dist/shards/shard-00.jsonl")).unwrap_or_default();
    assert!(
        !copied.contains("orphan") && !copied.contains("torn"),
        "{copied}"
    );

    // The compacted store reduces with zero simulation and identical grids.
    let clean = Campaign::open(&compacted, dist_spec())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(clean.stats.simulated, 0, "compaction must not lose records");
    for (name, grid) in &warm.grids {
        let rows = clean.grids[name].rows();
        assert_eq!(grid.rows(), rows, "grid `{name}` changed across compaction");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `--emit-spec` output round-trips through `--spec` semantics.
#[test]
fn emitted_spec_file_reloads() {
    let dir = tmpdir("emit-spec");
    let path = dir.join("paper.json");
    let emit = Command::new(BIN)
        .args(["--emit-spec", path.to_str().unwrap(), "--scale", "quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    wait_success(emit, "--emit-spec", Duration::from_secs(60));
    let text = std::fs::read_to_string(&path).unwrap();
    let spec = CampaignSpec::from_json(&text).expect("emitted spec must reload");
    assert_eq!(spec, CampaignSpec::paper(Scale::quick()));
    assert!(spec.sweep("main").is_some());
    let _ = std::fs::remove_dir_all(dir);
}

/// Extracts the count preceding `suffix` in a worker summary line, e.g.
/// `... 7 jobs simulated, ...` -> 7.
fn parse_summary_count(out: &str, suffix: &str) -> usize {
    let idx = out
        .find(suffix)
        .unwrap_or_else(|| panic!("no `{suffix}` in output:\n{out}"));
    out[..idx]
        .split_whitespace()
        .last()
        .and_then(|w| w.trim_start_matches('(').parse().ok())
        .unwrap_or_else(|| panic!("unparseable count before `{suffix}`:\n{out}"))
}
