//! The `experiments` binary's artifact dispatch, end to end: a full run
//! writes exactly the files the artifact table declares, every
//! `--exp NAME` answers from the warm store with byte-identical CSVs, and
//! `compact` refuses a spec that does not match the store with exit 2,
//! writing nothing.

use dsarp_campaign::paper;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// Runs `experiments --scale quick --cycles 4000 --per-category 1` with
/// `extra` flags into `out`; returns stdout.
fn experiments(store: &Path, out: &Path, extra: &[&str]) -> String {
    let output = Command::new(BIN)
        .args([
            "--scale",
            "quick",
            "--cycles",
            "4000",
            "--per-category",
            "1",
        ])
        .args(["--campaign", store.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap()])
        .args(extra)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "experiments {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn files(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn full_run_writes_the_declared_files_and_every_exp_answers_warm() {
    let dir = std::env::temp_dir().join(format!("dsarp-artifacts-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");
    let full = dir.join("full");
    experiments(&store, &full, &[]);

    let csv = |stem: &str| format!("{stem}.csv");
    let mut declared: BTreeSet<String> = paper::ARTIFACTS
        .iter()
        .flat_map(|a| a.sections)
        .map(|s| csv(s.stem))
        .collect();
    for extra in [
        "main_grid.csv",
        "main_grid.jsonl",
        "campaign_report.json",
        "EXPERIMENTS_RAW.md",
    ] {
        declared.insert(extra.into());
    }
    assert_eq!(files(&full), declared);

    for name in paper::names() {
        let out = dir.join(name);
        let stdout = experiments(&store, &out, &["--exp", name]);
        let artifact = paper::ARTIFACTS
            .iter()
            .find(|a| a.names.contains(&name))
            .unwrap();
        // The analytic Figure 5 runs no campaign at all.
        if name != "fig5" {
            assert!(stdout.contains(", 0 simulated"), "--exp {name}:\n{stdout}");
        }
        let written = files(&out);
        for section in artifact.sections {
            let file = csv(section.stem);
            assert_eq!(
                std::fs::read(out.join(&file)).unwrap(),
                std::fs::read(full.join(&file)).unwrap(),
                "--exp {name}: {file} differs from the full run's"
            );
        }
        let csvs = written.iter().filter(|f| f.ends_with(".csv"));
        let expected = artifact.sections.len() + usize::from(written.contains("main_grid.csv"));
        assert_eq!(csvs.count(), expected, "--exp {name} wrote {written:?}");
    }

    // The full-scale spec reaches none of this store's records: compact
    // refuses as a usage error (exit 2, no panic), writing nothing, not
    // even the manifest, and creating no new store.
    let manifest = store.join("paper/manifest.json");
    let manifest_before = std::fs::read(&manifest).unwrap();
    let compacted = dir.join("compacted");
    let refusal = Command::new(BIN)
        .args(["compact", "--scale", "full"])
        .args(["--campaign", store.to_str().unwrap()])
        .args(["--to", compacted.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&refusal.stderr);
    assert_eq!(refusal.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error: refusing to compact: the spec reaches none"),
        "{stderr}"
    );
    assert_eq!(
        std::fs::read(&manifest).unwrap(),
        manifest_before,
        "a refused compact rewrote manifest.json"
    );
    assert!(!compacted.exists(), "a refused compact wrote a store");
    let warm = experiments(&store, &dir.join("after"), &["--exp", "table5"]);
    assert!(warm.contains(", 0 simulated"), "{warm}");
    let _ = std::fs::remove_dir_all(dir);
}
