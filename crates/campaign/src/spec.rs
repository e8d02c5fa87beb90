//! Declarative campaign descriptions.
//!
//! A [`CampaignSpec`] names a set of [`SweepSpec`]s, each of which spans
//! the axes the paper sweeps — workload set, mechanisms, densities, core
//! count, subarrays per bank, retention, `tFAW`/`tRRD`, drain watermarks,
//! seeds — and expands into concrete [`Job`]s. Identical cells across
//! sweeps expand to identical fingerprints, so the executor simulates them
//! once and the store caches them forever.

use crate::fingerprint::Fingerprint;
use crate::job::Job;
use crate::traces::{self, TraceSetError, TraceWorkload};
use dsarp_core::Mechanism;
use dsarp_dram::{Density, Geometry, Retention};
use dsarp_sim::experiments::{harness::WORKLOAD_SEED, Scale};
use dsarp_sim::SimConfig;
use dsarp_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Which workload pool a sweep runs on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadSet {
    /// The paper's 100-workload evaluation set (5 categories ×
    /// `Scale::per_category`), on 8-core mixes.
    Paper,
    /// The memory-intensive sensitivity mixes for `cores`-core systems.
    Intensive {
        /// Cores per workload.
        cores: usize,
    },
    /// A directory of captured Ramulator-format traces: file names
    /// matching `glob` are sorted byte-wise and chunked into consecutive
    /// `cores`-wide bundles (see [`traces::resolve_trace_dir`]). Each
    /// trace's *content hash* — never its path — feeds the job
    /// fingerprints, so renaming keeps the cache and editing a trace
    /// invalidates exactly its own cells.
    TraceDir {
        /// Directory holding the traces.
        path: String,
        /// File-name glob (`*`/`?`), e.g. `*.trace`.
        glob: String,
        /// Cores per bundle.
        cores: usize,
    },
    /// An explicit trace-file list, bundled `cores` at a time in the
    /// given order (the caller controls bundling; no sorting).
    TraceFiles {
        /// Trace file paths, in bundle order.
        files: Vec<String>,
        /// Cores per bundle.
        cores: usize,
    },
}

/// One resolved workload of a sweep: a synthetic mix or a trace bundle.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CampaignWorkload {
    /// A synthetic multi-programmed mix.
    Synthetic(Workload),
    /// A bundle of captured trace files.
    Traced(TraceWorkload),
}

/// What an alone-IPC job measures. Alone jobs are deduplicated by this
/// within a density: by benchmark name for synthetic mixes, by content
/// hash for traces (the identity their fingerprints use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AloneKey {
    Bench(&'static str),
    Trace(Fingerprint),
}

/// A sweep the simulator cannot run, named by the field at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The sweep.
    pub sweep: String,
    /// The field at fault, as the spec's JSON names it.
    pub field: &'static str,
    /// What is wrong with its value.
    pub problem: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SpecError {
            sweep,
            field,
            problem,
        } = self;
        write!(
            f,
            "sweep `{sweep}` cannot be simulated: `{field}` {problem}"
        )
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for std::io::Error {
    fn from(e: SpecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
    }
}

/// One sweep's jobs in expansion order.
pub(crate) struct Expansion {
    /// The alone-IPC jobs, density by density, with what each measures.
    pub alone: Vec<(AloneKey, Job)>,
    /// The grid cells, each with the index of its workload.
    pub cells: Vec<(usize, Job)>,
}

impl CampaignWorkload {
    /// The alone-IPC measurement behind each of the workload's cores.
    pub(crate) fn alone_keys(&self) -> Vec<AloneKey> {
        match self {
            CampaignWorkload::Synthetic(w) => w
                .benchmarks
                .iter()
                .map(|b| AloneKey::Bench(b.name))
                .collect(),
            CampaignWorkload::Traced(t) => t
                .traces
                .iter()
                .map(|t| AloneKey::Trace(t.content_hash))
                .collect(),
        }
    }

    /// The workload's display name (grid row key; not fingerprinted).
    pub(crate) fn name(&self) -> &str {
        match self {
            CampaignWorkload::Synthetic(w) => &w.name,
            CampaignWorkload::Traced(t) => &t.name,
        }
    }
}

impl WorkloadSet {
    /// A [`WorkloadSet::TraceDir`] with the conventional `*.trace` glob.
    pub fn trace_dir(path: impl Into<String>, cores: usize) -> Self {
        WorkloadSet::TraceDir {
            path: path.into(),
            glob: "*.trace".into(),
            cores,
        }
    }

    /// Resolves the concrete workload list at `scale`, deterministically in
    /// `seed`, through `Scale`'s selection rules. Trace sets enumerate (and
    /// validate + content-hash) their files; synthetic sets cannot fail.
    ///
    /// # Errors
    ///
    /// [`TraceSetError`] naming the offending file for a missing,
    /// unreadable or invalid trace.
    pub(crate) fn resolve(
        &self,
        scale: &Scale,
        seed: u64,
    ) -> Result<Vec<CampaignWorkload>, TraceSetError> {
        Ok(match self {
            WorkloadSet::Paper => scale
                .workloads_with_seed(seed)
                .into_iter()
                .map(CampaignWorkload::Synthetic)
                .collect(),
            WorkloadSet::Intensive { cores } => scale
                .intensive_workloads_with_seed(*cores, seed)
                .into_iter()
                .map(CampaignWorkload::Synthetic)
                .collect(),
            WorkloadSet::TraceDir { path, glob, cores } => {
                traces::resolve_trace_dir(Path::new(path), glob, *cores)?
                    .into_iter()
                    .map(CampaignWorkload::Traced)
                    .collect()
            }
            WorkloadSet::TraceFiles { files, cores } => traces::resolve_trace_files(files, *cores)?
                .into_iter()
                .map(CampaignWorkload::Traced)
                .collect(),
        })
    }
}

/// One rectangular sweep: `workloads × mechanisms × densities` under a
/// shared configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Unique name within the campaign (also the grid's key in the report).
    pub name: String,
    /// Workload pool.
    pub workloads: WorkloadSet,
    /// Mechanisms evaluated.
    pub mechanisms: Vec<Mechanism>,
    /// Densities evaluated.
    pub densities: Vec<Density>,
    /// Core count (and workload width).
    pub cores: usize,
    /// Retention time.
    pub retention: Retention,
    /// Subarrays per bank.
    pub subarrays: usize,
    /// Optional `(tFAW, tRRD)` override.
    pub faw_rrd: Option<(u64, u64)>,
    /// Optional write-drain watermark override.
    pub drain_watermarks: Option<(usize, usize)>,
    /// Ablate SARP's power throttle (physically impossible; studies only).
    pub ablate_sarp_throttle: bool,
    /// Simulator seed override (`None` = the paper's).
    pub sim_seed: Option<u64>,
}

impl SweepSpec {
    /// A sweep of `mechanisms × densities` on the paper's defaults.
    pub fn new(
        name: impl Into<String>,
        workloads: WorkloadSet,
        mechanisms: &[Mechanism],
        densities: &[Density],
    ) -> Self {
        let cores = match &workloads {
            WorkloadSet::Paper => 8,
            WorkloadSet::Intensive { cores }
            | WorkloadSet::TraceDir { cores, .. }
            | WorkloadSet::TraceFiles { cores, .. } => *cores,
        };
        SweepSpec {
            name: name.into(),
            workloads,
            mechanisms: mechanisms.to_vec(),
            densities: densities.to_vec(),
            cores,
            retention: Retention::Ms32,
            subarrays: 8,
            faw_rrd: None,
            drain_watermarks: None,
            ablate_sarp_throttle: false,
            sim_seed: None,
        }
    }

    /// Refuses what the simulator cannot build: `cores` must be a nonzero
    /// power of two (the shared LLC's set count and the synthetic address
    /// map need one) no wider than the workloads, and `subarrays` a power
    /// of two dividing a bank's rows ([`Geometry::with_subarrays`]).
    fn validate(&self) -> Result<(), SpecError> {
        let refuse = |field, problem| {
            Err(SpecError {
                sweep: self.name.clone(),
                field,
                problem,
            })
        };
        let cores = self.cores;
        if !cores.is_power_of_two() {
            return refuse("cores", format!("= {cores} is not a nonzero power of two"));
        }
        let width = match &self.workloads {
            WorkloadSet::Paper => 8,
            WorkloadSet::Intensive { cores }
            | WorkloadSet::TraceDir { cores, .. }
            | WorkloadSet::TraceFiles { cores, .. } => *cores,
        };
        if cores > width {
            let problem = format!("= {cores} is wider than its {width}-core workloads");
            return refuse("cores", problem);
        }
        if let Err(e) = Geometry::paper_default().with_subarrays(self.subarrays) {
            return refuse("subarrays", format!("= {}: {e}", self.subarrays));
        }
        Ok(())
    }

    /// The cell configuration for one (mechanism, density).
    pub(crate) fn make_cfg(&self, mechanism: Mechanism, density: Density) -> SimConfig {
        let mut cfg = SimConfig::paper(mechanism, density)
            .with_cores(self.cores)
            .with_retention(self.retention)
            .with_subarrays(self.subarrays);
        if let Some((faw, rrd)) = self.faw_rrd {
            cfg = cfg.with_faw_rrd(faw, rrd);
        }
        if let Some((enter, exit)) = self.drain_watermarks {
            cfg = cfg.with_drain_watermarks(enter, exit);
        }
        if self.ablate_sarp_throttle {
            cfg = cfg.with_sarp_throttle_ablated();
        }
        if let Some(seed) = self.sim_seed {
            cfg = cfg.with_seed(seed);
        }
        cfg
    }

    /// Expands this sweep into jobs: deduplicated alone-IPC measurements
    /// first (by benchmark name for synthetic mixes, by content hash for
    /// traces), then every grid cell.
    ///
    /// # Errors
    ///
    /// [`TraceSetError`] naming the offending file when the sweep's trace
    /// set fails to resolve.
    pub fn jobs(&self, scale: &Scale, workload_seed: u64) -> Result<Vec<Job>, TraceSetError> {
        let workloads = self.workloads.resolve(scale, workload_seed)?;
        let Expansion { alone, cells } = self.expand(&workloads, scale);
        let alone = alone.into_iter().map(|(_, job)| job);
        Ok(alone.chain(cells.into_iter().map(|(_, job)| job)).collect())
    }

    /// [`SweepSpec::jobs`] over an already-resolved workload list: every
    /// alone job with what it measures, then every grid cell with the
    /// index of its workload, in (density, mechanism, workload) order —
    /// the row order of the sweep's grid.
    pub(crate) fn expand(&self, workloads: &[CampaignWorkload], scale: &Scale) -> Expansion {
        let mut alone = Vec::new();
        for &d in &self.densities {
            // The alone-IPC configuration mirrors `Grid::compute_with`: the
            // sweep's own geometry/retention, no refresh, a single core,
            // shared-LLC capacity.
            let base = self.make_cfg(Mechanism::NoRefresh, d);
            let cfg = base.with_warmup_ops(scale.warmup_ops).alone();
            let cycles = scale.alone_cycles;
            let mut seen = std::collections::HashSet::new();
            for wl in workloads {
                for (core, key) in wl.alone_keys().into_iter().enumerate() {
                    if !seen.insert(key) {
                        continue;
                    }
                    let job = match wl {
                        CampaignWorkload::Synthetic(wl) => Job::Alone {
                            cfg,
                            bench: wl.benchmarks[core],
                            cycles,
                        },
                        CampaignWorkload::Traced(tw) => Job::TraceAlone {
                            cfg,
                            trace: tw.traces[core].clone(),
                            cycles,
                        },
                    };
                    alone.push((key, job));
                }
            }
        }
        let mut cells = Vec::new();
        let cycles = scale.dram_cycles;
        for &d in &self.densities {
            for &m in &self.mechanisms {
                let cfg = self.make_cfg(m, d).with_warmup_ops(scale.warmup_ops);
                for (i, wl) in workloads.iter().enumerate() {
                    let job = match wl.clone() {
                        CampaignWorkload::Synthetic(workload) => Job::Grid {
                            cfg,
                            workload,
                            cycles,
                        },
                        CampaignWorkload::Traced(workload) => Job::TraceGrid {
                            cfg,
                            workload,
                            cycles,
                        },
                    };
                    cells.push((i, job));
                }
            }
        }
        Expansion { alone, cells }
    }
}

/// A full campaign: a scale plus the sweeps to run at it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name; also the store subdirectory.
    pub name: String,
    /// Run lengths, workload counts and thread budget.
    pub scale: Scale,
    /// Seed for workload-mix selection (the paper's by default).
    pub workload_seed: u64,
    /// The sweeps.
    pub sweeps: Vec<SweepSpec>,
}

impl CampaignSpec {
    /// An empty campaign at `scale`.
    pub fn new(name: impl Into<String>, scale: Scale) -> Self {
        CampaignSpec {
            name: name.into(),
            scale,
            workload_seed: WORKLOAD_SEED,
            sweeps: Vec::new(),
        }
    }

    /// Adds a sweep.
    #[must_use]
    pub fn with_sweep(mut self, sweep: SweepSpec) -> Self {
        assert!(
            self.sweeps.iter().all(|s| s.name != sweep.name),
            "duplicate sweep name `{}`",
            sweep.name
        );
        self.sweeps.push(sweep);
        self
    }

    /// Checks that every sweep can be simulated, before anything is
    /// opened or expanded.
    ///
    /// # Errors
    ///
    /// `SpecError` naming the first offending sweep and field.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.sweeps.iter().try_for_each(SweepSpec::validate)
    }

    /// The sweep named `name`, if present.
    pub fn sweep(&self, name: &str) -> Option<&SweepSpec> {
        self.sweeps.iter().find(|s| s.name == name)
    }

    /// The full paper evaluation: the main 12-mechanism grid plus every
    /// sensitivity sweep (Tables 3–6 and the design ablations) — the union
    /// of the sweeps [`crate::paper::ARTIFACTS`] declares.
    pub fn paper(scale: Scale) -> Self {
        crate::paper::spec(scale, None)
    }

    /// Keeps only the sweeps whose name starts with one of `prefixes`
    /// (used by the experiments binary's `--exp` filter).
    #[must_use]
    pub fn filtered(mut self, prefixes: &[&str]) -> Self {
        self.sweeps
            .retain(|s| prefixes.iter().any(|p| s.name.starts_with(p)));
        self
    }

    /// Renders this spec as JSON text — the `experiments --emit-spec`
    /// format, reloadable with [`CampaignSpec::from_json`] so new sweeps
    /// need no recompilation.
    pub fn to_json(&self) -> String {
        format!(
            "{}\n",
            serde_json::to_string(self).expect("specs serialize")
        )
    }

    /// Parses a spec from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse/shape error for malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text.trim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            dram_cycles: 2_000,
            alone_cycles: 1_000,
            per_category: 1,
            threads: 2,
            warmup_ops: 500,
        }
    }

    #[test]
    fn paper_campaign_has_all_sweeps() {
        let spec = CampaignSpec::paper(tiny_scale());
        for name in [
            "main",
            "table3/cores2",
            "table4/faw5-rrd1",
            "table5/sub64",
            "table6",
            "ablations/throttle",
            "ablations/wm48-32",
        ] {
            assert!(spec.sweep(name).is_some(), "missing sweep {name}");
        }
        assert_eq!(spec.sweeps.len(), 1 + 3 + 6 + 7 + 1 + 3 + 3);
    }

    #[test]
    fn sweep_expansion_counts() {
        let scale = tiny_scale();
        let spec = CampaignSpec::paper(scale);
        let main = spec.sweep("main").unwrap();
        let jobs = main.jobs(&scale, spec.workload_seed).unwrap();
        let grids = jobs
            .iter()
            .filter(|j| matches!(j, Job::Grid { .. }))
            .count();
        // 5 workloads (1/category) x 12 mechanisms x 3 densities.
        assert_eq!(grids, 5 * 12 * 3);
        let alones = jobs.len() - grids;
        assert!(alones > 0, "alone jobs must be expanded");
        // Alone jobs are unique per (benchmark, density) within the sweep.
        let mut fps: Vec<_> = jobs
            .iter()
            .filter(|j| matches!(j, Job::Alone { .. }))
            .map(Job::fingerprint)
            .collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), alones);
    }

    #[test]
    fn identical_cells_share_fingerprints_across_sweeps() {
        let scale = tiny_scale();
        let spec = CampaignSpec::paper(scale);
        // table5/sub8 and ablations/throttle are both RefPb and SarpPb at
        // 32 Gb with 8 subarrays on the same workloads, so their job sets
        // must intersect.
        let fp = |name: &str| -> std::collections::HashSet<_> {
            spec.sweep(name)
                .unwrap()
                .jobs(&scale, spec.workload_seed)
                .unwrap()
                .iter()
                .map(Job::fingerprint)
                .collect()
        };
        let sub8 = fp("table5/sub8");
        let throttle = fp("ablations/throttle");
        assert!(
            throttle.iter().filter(|f| sub8.contains(f)).count() > 0,
            "cross-sweep dedup opportunity must exist"
        );
        // The ablated SARP sweep shares nothing with the plain one except
        // alone jobs (its config differs).
        let unthrottled = fp("ablations/unthrottled");
        let shared_grids = spec
            .sweep("ablations/unthrottled")
            .unwrap()
            .jobs(&scale, spec.workload_seed)
            .unwrap()
            .iter()
            .filter(|j| matches!(j, Job::Grid { .. }))
            .map(Job::fingerprint)
            .filter(|f| throttle.contains(f))
            .count();
        assert_eq!(shared_grids, 0);
        assert!(!unthrottled.is_empty());
    }

    #[test]
    fn spec_json_roundtrip_preserves_jobs() {
        let spec = CampaignSpec::paper(tiny_scale());
        let text = spec.to_json();
        let back = CampaignSpec::from_json(&text).expect("emitted specs reload");
        assert_eq!(back, spec);
        // The reloaded spec must expand to the identical job set — the
        // property --spec execution correctness rests on.
        let scale = spec.scale;
        for (a, b) in spec.sweeps.iter().zip(&back.sweeps) {
            let fps: Vec<_> = a
                .jobs(&scale, spec.workload_seed)
                .unwrap()
                .iter()
                .map(Job::fingerprint)
                .collect();
            let back_fps: Vec<_> = b
                .jobs(&back.scale, back.workload_seed)
                .unwrap()
                .iter()
                .map(Job::fingerprint)
                .collect();
            assert_eq!(fps, back_fps, "sweep {} drifted across JSON", a.name);
        }
        assert!(CampaignSpec::from_json("{\"name\":3}").is_err());
    }

    #[test]
    fn workload_resolution_is_deterministic() {
        let scale = tiny_scale();
        let a = WorkloadSet::Paper.resolve(&scale, 1).unwrap();
        let b = WorkloadSet::Paper.resolve(&scale, 1).unwrap();
        let c = WorkloadSet::Paper.resolve(&scale, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5);
        let i = WorkloadSet::Intensive { cores: 4 }
            .resolve(&scale, 1)
            .unwrap();
        assert_eq!(i.len(), 2);
        assert!(i
            .iter()
            .all(|w| matches!(w, CampaignWorkload::Synthetic(s) if s.cores() == 4)));
    }

    #[test]
    fn trace_specs_roundtrip_through_json() {
        let dir = std::env::temp_dir().join(format!("dsarp-spec-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.trace"), "1 0x40\n").unwrap();
        std::fs::write(dir.join("b.trace"), "2 0x80\n").unwrap();

        let scale = tiny_scale();
        let spec = CampaignSpec::new("traced", scale)
            .with_sweep(SweepSpec::new(
                "dir",
                WorkloadSet::trace_dir(dir.to_string_lossy().into_owned(), 2),
                &[Mechanism::RefAb],
                &[Density::G8],
            ))
            .with_sweep(SweepSpec::new(
                "files",
                WorkloadSet::TraceFiles {
                    // Reversed bundle order: same traces, different cores.
                    files: vec![
                        dir.join("b.trace").to_string_lossy().into_owned(),
                        dir.join("a.trace").to_string_lossy().into_owned(),
                    ],
                    cores: 2,
                },
                &[Mechanism::RefAb],
                &[Density::G8],
            ));
        let back = CampaignSpec::from_json(&spec.to_json()).expect("trace specs reload");
        assert_eq!(back, spec);
        for (a, b) in spec.sweeps.iter().zip(&back.sweeps) {
            let fps: Vec<_> = a
                .jobs(&scale, spec.workload_seed)
                .unwrap()
                .iter()
                .map(Job::fingerprint)
                .collect();
            let back_fps: Vec<_> = b
                .jobs(&scale, back.workload_seed)
                .unwrap()
                .iter()
                .map(Job::fingerprint)
                .collect();
            assert_eq!(fps, back_fps, "sweep {} drifted across JSON", a.name);
        }

        // Both sweeps replay the same two traces on the same geometry, so
        // the per-trace alone jobs collapse across sweeps; the grid cells
        // differ (core order is part of the key: b+a is not a+b).
        let dir_jobs = spec.sweeps[0].jobs(&scale, spec.workload_seed).unwrap();
        let file_jobs = spec.sweeps[1].jobs(&scale, spec.workload_seed).unwrap();
        let dir_fps: std::collections::HashSet<_> = dir_jobs.iter().map(Job::fingerprint).collect();
        let shared = file_jobs
            .iter()
            .filter(|j| dir_fps.contains(&j.fingerprint()))
            .count();
        assert_eq!(shared, 2, "per-trace alone jobs dedup across sweeps");
        assert_eq!(file_jobs.len(), 3, "2 alone + 1 grid");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweeps_the_simulator_cannot_build_are_refused() {
        let paper = CampaignSpec::paper(tiny_scale());
        assert_eq!(paper.validate(), Ok(()));
        type Edit = fn(&mut SweepSpec);
        let cases: [(Edit, &str, &str); 5] = [
            (
                |s| s.cores = 0,
                "cores",
                "= 0 is not a nonzero power of two",
            ),
            (
                |s| s.cores = 6,
                "cores",
                "= 6 is not a nonzero power of two",
            ),
            (
                |s| s.cores = 16,
                "cores",
                "= 16 is wider than its 8-core workloads",
            ),
            (|s| s.subarrays = 3, "subarrays", "= 3: dimension"),
            (
                |s| s.subarrays = 1 << 17,
                "subarrays",
                "must divide rows_per_bank",
            ),
        ];
        for (edit, field, problem) in cases {
            let mut spec = paper.clone();
            edit(&mut spec.sweeps[0]);
            let err = spec.validate().unwrap_err();
            assert_eq!(
                (err.sweep.as_str(), err.field),
                (spec.sweeps[0].name.as_str(), field)
            );
            assert!(err.problem.contains(problem), "{err}");
            let planned = crate::plan::CampaignPlan::build(&spec).unwrap_err();
            assert_eq!(planned.to_string(), err.to_string());
        }
    }

    #[test]
    fn sweep_expansion_rejects_bad_trace_sets() {
        let scale = tiny_scale();
        let sweep = SweepSpec::new(
            "ghost",
            WorkloadSet::trace_dir("/nonexistent/trace/dir", 1),
            &[Mechanism::RefAb],
            &[Density::G8],
        );
        let err = sweep.jobs(&scale, WORKLOAD_SEED).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/trace/dir"), "{err}");
    }
}
