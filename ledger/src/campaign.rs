//! The two campaign workloads — `campaign_cold` (every cell simulated on a
//! fresh store) and `campaign_warm` (every cell answered from a
//! pre-populated store) — and, for the traced run, drivers for single
//! jobs, fingerprinting, the store and the lease files.

use crate::bench::{measure, median, repeat, Checks, Ctx, Outcome, Rng};
use crate::trace::Tracer;
use dsarp_campaign::fingerprint::fingerprint_bytes;
use dsarp_campaign::lease::{Acquire, Lease};
use dsarp_campaign::{
    CacheStats, Campaign, CampaignReport, CampaignSpec, Fingerprint, Job, PhaseTiming, Record,
    RunSummary, Store, SweepSpec, WorkloadSet,
};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::{report, Scale};
use dsarp_sim::SystemBuilder;
use dsarp_workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// Worker threads of both campaign workloads: `min(2, nproc)` busy threads
/// is all the load this benchmark ever applies.
const THREADS: usize = 2;

/// `campaign_cold`'s spec, also the store `serve_mix` serves: one sweep of
/// the paper's workload set (one mix per intensity category) over five
/// mechanisms at 32 Gb — 25 grid cells plus one alone-IPC job per distinct
/// benchmark, about 50 unique jobs.
pub fn cold_spec(ctx: &Ctx) -> CampaignSpec {
    let scale = Scale {
        dram_cycles: ctx.size(40_000),
        alone_cycles: ctx.size(25_000),
        per_category: 1,
        threads: THREADS,
        warmup_ops: ctx.size(25_000),
    };
    let sweep = SweepSpec::new(
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
    seeded(
        CampaignSpec::new("bench", scale).with_sweep(sweep),
        ctx.seed,
    )
}

/// `campaign_warm`'s spec: the whole paper campaign at quick scale.
fn warm_spec(ctx: &Ctx) -> CampaignSpec {
    seeded(
        CampaignSpec::paper(Scale::quick().with_threads(THREADS)),
        ctx.seed,
    )
}

/// `--seed` picks the mixes and seeds every simulated system.
fn seeded(mut spec: CampaignSpec, seed: u64) -> CampaignSpec {
    spec.workload_seed = seed;
    for sweep in &mut spec.sweeps {
        sweep.sim_seed = Some(seed);
    }
    spec
}

/// The spec's jobs after in-flight dedup, by fingerprint.
pub fn unique_jobs(spec: &CampaignSpec) -> BTreeMap<Fingerprint, Job> {
    let mut unique = BTreeMap::new();
    for sweep in &spec.sweeps {
        let jobs = sweep
            .jobs(&spec.scale, spec.workload_seed)
            .expect("synthetic workload sets always resolve");
        for job in jobs {
            unique.entry(job.fingerprint()).or_insert(job);
        }
    }
    unique
}

/// One synthetic record per unique job: plausible IPCs drawn from `--seed`,
/// so a warm campaign assembles real grids without simulating anything.
pub fn synthetic_records(
    jobs: &BTreeMap<Fingerprint, Job>,
    seed: u64,
) -> Vec<(Fingerprint, Record)> {
    let mut rng = Rng(seed);
    let mut ipc = move || 0.2 + rng.below(2_000) as f64 / 1_000.0;
    jobs.iter()
        .map(|(&fp, job)| {
            let record = match job {
                Job::Grid { cfg, .. } | Job::TraceGrid { cfg, .. } => {
                    let per_core: Vec<f64> = (0..cfg.cores).map(|_| ipc()).collect();
                    let summary = RunSummary {
                        total_ipc: per_core.iter().sum(),
                        ipc: per_core,
                        energy_per_access_nj: 5.0 + ipc(),
                    };
                    Record::grid(fp, job.label(), summary)
                }
                Job::Alone { .. } | Job::TraceAlone { .. } => {
                    Record::alone(fp, job.label(), 1.0 + ipc())
                }
            };
            (fp, record)
        })
        .collect()
}

/// Opens the campaign's store under `dir` and appends `records` to it.
pub fn populate(dir: &Path, spec: &CampaignSpec, records: &[(Fingerprint, Record)]) {
    let campaign = Campaign::open(dir, spec.clone()).expect("scratch store opens");
    for (fp, record) in records {
        campaign
            .store()
            .append(*fp, record)
            .expect("scratch store accepts appends");
    }
}

/// FNV-128 over every exported grid CSV, in sweep-name order.
fn grid_fp(report: &CampaignReport) -> String {
    let csv: String = report
        .grids
        .values()
        .map(|grid| report::to_csv(grid.rows()))
        .collect();
    fingerprint_bytes(csv.as_bytes()).to_string()
}

/// What the repetition loop learned beyond its timings. Only the small
/// parts of each report are kept: holding the grids would make peak RSS
/// grow with the number of repetitions.
#[derive(Default)]
struct Seen {
    grid_fp: Option<String>,
    reports: Vec<(CacheStats, PhaseTiming)>,
}

fn reps(
    ctx: &Ctx,
    cold: bool,
    seconds: f64,
    records: &[(Fingerprint, Record)],
    tracer: &Tracer,
    checks: &mut Checks,
    seen: &mut Seen,
) -> Outcome {
    let mut out = Outcome::default();
    let mut work = 0.0;
    repeat(
        ctx,
        seconds,
        tracer,
        &mut out,
        || {
            let dir = ctx.fresh_dir("campaign");
            let spec = if cold { cold_spec(ctx) } else { warm_spec(ctx) };
            if !cold {
                tracer.span("campaign", "campaign.populate", || {
                    populate(&dir, &spec, records)
                });
            }
            // Creating a cold campaign's empty store is set-up; loading a
            // warm one's records is the work being timed.
            let opened =
                cold.then(|| Campaign::open(&dir, spec.clone()).expect("scratch store opens"));
            (dir, spec, opened)
        },
        |(dir, spec, opened)| {
            let mut campaign = opened.unwrap_or_else(|| {
                tracer.span("campaign", "campaign.open", || {
                    Campaign::open(&dir, spec).expect("scratch store opens")
                })
            });
            let report = tracer.span("campaign", "campaign.run", || campaign.run());
            (dir, report)
        },
        |rep, (dir, report)| {
            let _ = std::fs::remove_dir_all(dir);
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    return checks.expect(false, || format!("repetition {rep}: run failed: {e}"))
                }
            };
            let stats = report.stats;
            tracer.count("campaign.simulated", stats.simulated as f64);
            tracer.count("campaign.cache_hits", stats.cache_hits as f64);
            checks.passed(stats.unique_jobs as u64);
            if cold {
                work = stats.unique_jobs as f64;
                checks.expect(stats.simulated == stats.unique_jobs, || {
                    format!(
                        "cold run simulated {} of {} jobs",
                        stats.simulated, stats.unique_jobs
                    )
                });
                checks.expect(stats.persist_failures == 0, || {
                    format!("{} records failed to persist", stats.persist_failures)
                });
            } else {
                work = stats.cells as f64;
                checks.expect(stats.simulated == 0, || {
                    format!("warm run simulated {} jobs", stats.simulated)
                });
                checks.expect(stats.cache_hits == stats.unique_jobs, || {
                    format!(
                        "warm run hit {} of {} jobs",
                        stats.cache_hits, stats.unique_jobs
                    )
                });
            }
            let fp = grid_fp(&report);
            let first = seen.grid_fp.get_or_insert_with(|| fp.clone());
            checks.expect(*first == fp, || {
                format!("repetition {rep} exported different grid CSV bytes")
            });
            seen.reports.push((stats, report.timing));
        },
    );
    out.work_per_rep = work;
    out
}

pub fn run(ctx: &Ctx, name: &str, checks: &mut Checks, tracer: &Tracer) -> Outcome {
    let cold = name == "campaign_cold";
    let spec = if cold { cold_spec(ctx) } else { warm_spec(ctx) };
    let jobs = unique_jobs(&spec);
    // A cold store starts empty; a warm one holds every job's record.
    let records = if cold {
        Vec::new()
    } else {
        synthetic_records(&jobs, ctx.seed)
    };
    let mut seen = Seen::default();
    let (mut out, traced) = measure(ctx, tracer, |seconds| {
        // Only the last loop's reports are read: the traced one's.
        seen.reports.clear();
        reps(ctx, cold, seconds, &records, tracer, checks, &mut seen)
    });
    out.fingerprints.push((
        "grid_fp",
        seen.grid_fp.clone().expect("at least one repetition ran"),
    ));
    if traced.is_none() {
        return out;
    }
    // Each phase at its fastest over the traced repetitions.
    let phase = |f: fn(&PhaseTiming) -> u64| {
        seen.reports
            .iter()
            .map(|(_, timing)| f(timing) as f64)
            .fold(f64::INFINITY, f64::min)
    };
    let stats = seen.reports[0].0;
    let l = &mut out.layer;
    l.insert("campaign.jobs", stats.unique_jobs as f64);
    l.insert("campaign.cache_hits", stats.cache_hits as f64);
    l.insert("campaign.expand_ms", phase(|t| t.expand_ms));
    l.insert("campaign.simulate_ms", phase(|t| t.simulate_ms));
    l.insert("campaign.assemble_ms", phase(|t| t.assemble_ms));
    let simulate_ms = l["campaign.simulate_ms"];

    if cold {
        drive_jobs(&jobs, simulate_ms, tracer, &mut out);
    }
    drive_store(ctx, &spec, &jobs, tracer, checks, &mut out);
    out
}

/// Every unique job on one thread, and the `build()` each one starts with.
fn drive_jobs(
    jobs: &BTreeMap<Fingerprint, Job>,
    simulate_ms: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    for job in jobs.values() {
        tracer.span("campaign", "campaign.job_execute", || {
            black_box(job.execute())
        });
        let (cfg, workload) = match job {
            Job::Grid { cfg, workload, .. } => (cfg, workload.clone()),
            Job::Alone { cfg, bench, .. } => (cfg, Workload::alone_for(bench)),
            Job::TraceAlone { .. } | Job::TraceGrid { .. } => continue,
        };
        tracer.span("campaign", "campaign.job_build", || {
            black_box(SystemBuilder::new(cfg).workload(&workload).build());
        });
    }
    let execute = tracer.durations_ns("campaign.job_execute");
    let build: f64 = tracer.durations_ns("campaign.job_build").iter().sum();
    let total: f64 = execute.iter().sum();
    let l = &mut out.layer;
    l.insert("campaign.job_execute_ms_p50", median(&execute) / 1e6);
    l.insert(
        "campaign.job_execute_ms_max",
        execute.iter().copied().fold(0.0, f64::max) / 1e6,
    );
    l.insert("campaign.job_setup_share", build / total);
    l.insert(
        "campaign.parallel_efficiency",
        total / 1e6 / (THREADS as f64 * simulate_ms.max(1.0)),
    );
}

/// Fingerprinting, store append/open/decode and a lease cycle, each on its
/// own.
fn drive_store(
    ctx: &Ctx,
    spec: &CampaignSpec,
    jobs: &BTreeMap<Fingerprint, Job>,
    tracer: &Tracer,
    checks: &mut Checks,
    out: &mut Outcome,
) {
    tracer.span("campaign", "campaign.fingerprint", || {
        for job in jobs.values() {
            black_box(job.fingerprint());
        }
    });
    let records = synthetic_records(jobs, ctx.seed);
    let dir = ctx.fresh_dir("store");
    let campaign = Campaign::open(&dir, spec.clone()).expect("scratch store opens");
    tracer.span("campaign", "campaign.store.append", || {
        for (fp, record) in &records {
            campaign
                .store()
                .append(*fp, record)
                .expect("scratch store accepts appends");
        }
    });
    drop(campaign);
    let manifest = serde_json::to_value(spec).expect("specs serialize");
    for _ in 0..3 {
        let store = tracer.span("campaign", "campaign.store.open", || {
            Store::open(&dir, &spec.name, &manifest).expect("scratch store reopens")
        });
        checks.expect(store.loaded() == records.len(), || {
            format!(
                "store reopened with {} of {} records",
                store.loaded(),
                records.len()
            )
        });
    }
    let lines: Vec<String> = records.iter().map(|(_, r)| Store::encode_line(r)).collect();
    let decoded = tracer.span("campaign", "campaign.store.decode", || {
        lines
            .iter()
            .filter(|line| black_box(Store::decode_line(line)).is_some())
            .count()
    });
    checks.expect(decoded == lines.len(), || {
        format!("decoded {decoded} of {} record lines", lines.len())
    });

    let campaign_dir = dir.join(&spec.name);
    let cycles = ctx.size(2_000);
    let mut held = 0;
    tracer.span("campaign", "campaign.lease.cycles", || {
        for _ in 0..cycles {
            if let Ok(Acquire::Acquired(lease)) = Lease::acquire(&campaign_dir, 0, "ledger", 60_000)
            {
                held += u64::from(lease.renew().is_ok() && lease.release().is_ok());
            }
        }
    });
    checks.expect(held == cycles, || {
        format!("{held} of {cycles} lease cycles completed")
    });

    let ns = |span: &str| tracer.best_ns(span);
    let n = records.len().max(1) as f64;
    let l = &mut out.layer;
    l.insert(
        "campaign.fingerprint_us_per_job",
        ns("campaign.fingerprint") / 1e3 / jobs.len().max(1) as f64,
    );
    l.insert(
        "campaign.store.append_us",
        ns("campaign.store.append") / 1e3 / n,
    );
    l.insert("campaign.store.open_ms", ns("campaign.store.open") / 1e6);
    l.insert(
        "campaign.store.decode_line_ns",
        ns("campaign.store.decode") / n,
    );
    l.insert(
        "campaign.lease.cycle_us",
        ns("campaign.lease.cycles") / 1e3 / cycles as f64,
    );
}
