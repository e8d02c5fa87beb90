//! Fingerprint identity across the plan refactor: stores written before
//! it must still answer. The literals below were computed at the commit
//! before `CampaignPlan` existed, through `fingerprint_value(key_value())`.

use dsarp_campaign::fingerprint::{fingerprint_bytes, fingerprint_value};
use dsarp_campaign::{
    Campaign, CampaignPlan, CampaignSpec, Fingerprint, Job, Store, SweepSpec, TraceRef,
    TraceWorkload, WorkloadSet,
};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::{report, Scale};
use dsarp_sim::SimConfig;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dsarp-campaign-plan-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn golden_fingerprints_of_every_job_kind() {
    let workload = dsarp_workloads::mixes::intensive_mixes(4, 1)[0].clone();
    let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32).with_cores(4);
    let trace = |name: &str, hash: u128| {
        TraceRef::detached(format!("/x/{name}.trace"), name, Fingerprint(hash), 10)
    };
    let golden = [
        (
            Job::Alone {
                cfg: cfg.alone(),
                bench: workload.benchmarks[0],
                cycles: 5_000,
            },
            "384def65013d134c7352a469eae8b609",
        ),
        (
            Job::Grid {
                cfg,
                workload: workload.clone(),
                cycles: 10_000,
            },
            "529404996bcb80e83850e2302e72e03f",
        ),
        (
            Job::TraceAlone {
                cfg: cfg.alone(),
                trace: trace("a", 1),
                cycles: 5_000,
            },
            "7ec22bcd7871ad4faaf80f9606e26d36",
        ),
        (
            Job::TraceGrid {
                cfg,
                workload: TraceWorkload::new(vec![trace("a", 1), trace("b", 2)]),
                cycles: 10_000,
            },
            "be0dd4eaca6eaf57fd03cc2be213e998",
        ),
    ];
    for (job, want) in golden {
        assert_eq!(job.fingerprint().to_string(), want, "{}", job.label());
        assert_eq!(
            fingerprint_value(&job.key_value()).to_string(),
            want,
            "{}",
            job.label()
        );
    }
}

/// Every job the plan keeps carries the fingerprint both standalone
/// definitions give it, and the plan keeps exactly the jobs the sweeps
/// expand to, first occurrence first.
fn assert_plan_matches_standalone(spec: &CampaignSpec) {
    let plan = CampaignPlan::build(spec).unwrap();
    let mut expected = Vec::new();
    let mut cells = 0;
    for sweep in &spec.sweeps {
        for job in sweep.jobs(&spec.scale, spec.workload_seed).unwrap() {
            cells += 1;
            let fp = job.fingerprint();
            assert_eq!(fp, fingerprint_value(&job.key_value()), "{}", job.label());
            if !expected.iter().any(|(seen, _)| *seen == fp) {
                expected.push((fp, job.label()));
            }
        }
    }
    assert_eq!(plan.cells(), cells);
    let planned: Vec<_> = plan
        .unique()
        .iter()
        .map(|(fp, job)| (*fp, job.label()))
        .collect();
    assert_eq!(planned, expected);
    for (fp, job) in plan.unique() {
        assert_eq!(*fp, job.fingerprint(), "{}", job.label());
    }
}

#[test]
fn plan_fingerprints_equal_standalone_fingerprints() {
    assert_plan_matches_standalone(&CampaignSpec::paper(Scale::quick()));

    let dir = tmpdir("traces");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.trace"), "1 0x40\n").unwrap();
    std::fs::write(dir.join("b.trace"), "2 0x80\n").unwrap();
    let traced = CampaignSpec::new("traced", Scale::quick()).with_sweep(SweepSpec::new(
        "dir",
        WorkloadSet::trace_dir(dir.to_string_lossy().into_owned(), 2),
        &[Mechanism::RefAb, Mechanism::Dsarp],
        &[Density::G8, Density::G32],
    ));
    assert_plan_matches_standalone(&traced);
    let _ = std::fs::remove_dir_all(dir);
}

/// The plan's grids are the parent's, byte for byte: the Table-3 2-core
/// subset assembled through [`CampaignPlan::assemble`] from the shards on
/// disk hashes to the grid snapshot `campaign.rs` pins for the run itself.
#[test]
fn plan_assembles_the_baseline_snapshot_grids() {
    const BASELINE_GRIDS: &str = "c96c8898186338b1cf52fe436a6cb296";
    let scale = Scale {
        dram_cycles: 2_000,
        alone_cycles: 1_000,
        per_category: 1,
        threads: 2,
        warmup_ops: 500,
    };
    let mut spec = CampaignSpec::paper(scale).filtered(&["table3/cores2"]);
    spec.name = "paper-subset".into();
    let dir = tmpdir("snapshot");
    Campaign::open(&dir, spec.clone()).unwrap().run().unwrap();

    let records = Store::read_all(&dir.join("paper-subset")).unwrap();
    let plan = CampaignPlan::build(&spec).unwrap();
    let grids = plan.assemble(|fp| records.get(&fp.0)).unwrap();
    let mut rendered = String::new();
    for (name, grid) in &grids {
        rendered.push_str(name);
        rendered.push('\n');
        rendered.push_str(&report::to_csv(grid.rows()));
    }
    assert_eq!(
        fingerprint_bytes(rendered.as_bytes()).to_string(),
        BASELINE_GRIDS
    );

    // One absent record is counted, not papered over.
    let (gone, _) = plan.unique()[0];
    let err = plan
        .assemble(|fp| records.get(&fp.0).filter(|_| fp != gone))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert_eq!(
        err.to_string(),
        format!(
            "campaign `paper-subset` is not drained: 1 of {} records missing",
            plan.unique().len()
        )
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Every job key of the quick paper campaign, at its default seeds and
/// at the perf ledger's (`--seed` 0xD5A22014 as workload and simulator
/// seed): the unique fingerprints, sorted, and their count, folded into
/// one hash per spec. The literals were computed while keys were still
/// rendered from a `Value` tree.
#[test]
fn every_quick_paper_key_is_pinned() {
    let mut seeded = CampaignSpec::paper(Scale::quick());
    seeded.workload_seed = 0xD5A2_2014;
    for sweep in &mut seeded.sweeps {
        sweep.sim_seed = Some(0xD5A2_2014);
    }
    let pinned = [
        (
            CampaignSpec::paper(Scale::quick()),
            870,
            "d8587ece7fb8fc9b05486fe8317abdbf",
        ),
        (seeded, 911, "63891d730ba56a3752cca4485b0a7f11"),
    ];
    for (spec, count, keys) in pinned {
        let plan = CampaignPlan::build(&spec).unwrap();
        let mut fps: Vec<String> = plan.unique().iter().map(|(fp, _)| fp.to_string()).collect();
        fps.sort();
        let folded = format!("{}\n{}", fps.len(), fps.join("\n"));
        assert_eq!(fps.len(), count);
        assert_eq!(fingerprint_bytes(folded.as_bytes()).to_string(), keys);
    }
}
