//! The campaign plan: every sweep expanded once, every cell fingerprinted
//! once. Running, draining, merging, `status`, the `compact` keep-set and
//! the server's export all start from it, and [`CampaignPlan::assemble`]
//! turns a record lookup into grids without building a job or hashing
//! anything again.
//!
//! Most of a job's key is shared — its `cfg` member by every workload of
//! a (sweep, mechanism, density), its content member wherever a workload
//! or benchmark recurs — so the plan computes each shared part once and
//! composes them per cell through the same function [`Job::fingerprint`]
//! feeds fresh ones: one key definition with memoized inputs. A `cfg`
//! is rendered once per run of cells sharing it. A content member is
//! kept as the FNV state after the key prefix `{"benchmarks":<content>,
//! "cfg":` (16 bytes instead of ~1 kB of text; trace content, which
//! sorts after `kind`, is kept as text), memoized campaign-wide by
//! [`CampaignWorkload::alone_keys`] — benchmark names, unique in the
//! catalogue, or trace content hashes — so each cell hashes only its
//! ~300 B `cfg` and the tail.

use crate::fingerprint::Fingerprint;
use crate::job::{ContentKey, Job};
use crate::spec::{AloneKey, CampaignSpec, CampaignWorkload, SpecError};
use crate::store::Record;
use crate::traces::TraceSetError;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::harness::{Grid, WsRow};
use dsarp_sim::{Metrics, SimConfig};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A campaign that cannot be planned.
#[derive(Debug)]
pub enum PlanError {
    /// A sweep the simulator cannot run.
    Spec(SpecError),
    /// A sweep whose workload set failed to resolve.
    Traces {
        /// The sweep that could not be expanded.
        sweep: String,
        /// Why, naming the offending trace file.
        error: TraceSetError,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Spec(e) => e.fmt(f),
            PlanError::Traces { sweep, error } => {
                write!(f, "sweep `{sweep}` failed to expand: {error}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for std::io::Error {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::Spec(e) => e.into(),
            PlanError::Traces { error, .. } => error.into(),
        }
    }
}

/// One grid cell: where its row goes and which record answers it.
#[derive(Debug)]
struct PlannedCell {
    fingerprint: Fingerprint,
    mechanism: Mechanism,
    density: Density,
    /// Index into the sweep's workloads.
    workload: usize,
}

#[derive(Debug)]
struct SweepPlan {
    name: String,
    cores: usize,
    workloads: Vec<CampaignWorkload>,
    /// The alone-IPC job behind each (density, benchmark | trace).
    alone: Vec<((Density, AloneKey), Fingerprint)>,
    /// The grid's cells in row order: (density, mechanism, workload).
    cells: Vec<PlannedCell>,
}

/// A campaign expanded and fingerprinted; see the module docs.
#[derive(Debug)]
pub struct CampaignPlan {
    campaign: String,
    cells: usize,
    unique: Vec<(Fingerprint, Job)>,
    sweeps: Vec<SweepPlan>,
}

impl CampaignPlan {
    /// Resolves every sweep's workloads (trace sets read, validate and
    /// content-hash their files, so an edited trace changes the plan),
    /// expands the sweeps and fingerprints every job.
    ///
    /// # Errors
    ///
    /// `PlanError` naming the first sweep that cannot be simulated
    /// ([`CampaignSpec::validate`]) or whose trace set fails to resolve.
    pub fn build(spec: &CampaignSpec) -> Result<Self, PlanError> {
        spec.validate().map_err(PlanError::Spec)?;
        let (mut cells, mut unique, mut seen) = (0, Vec::new(), HashSet::new());
        // Expansion groups jobs by configuration, so remembering the last
        // one rendered renders each exactly once.
        let mut last_cfg: Option<(SimConfig, String)> = None;
        let mut admit = |job: Job, content: &ContentKey| {
            if !matches!(&last_cfg, Some((cfg, _)) if cfg == job.cfg()) {
                last_cfg = Some((*job.cfg(), Job::cfg_fragment(job.cfg())));
            }
            let (_, cfg) = last_cfg.as_ref().expect("rendered above");
            let fp = job.fingerprint_with(content, cfg);
            cells += 1;
            if seen.insert(fp) {
                unique.push((fp, job));
            }
            fp
        };
        // Content keys, campaign-wide: an alone job's by what it measures,
        // a cell's by what each of its cores measures.
        let mut alone_content: HashMap<AloneKey, ContentKey> = HashMap::new();
        let mut cell_content: HashMap<Vec<AloneKey>, ContentKey> = HashMap::new();
        let mut sweeps = Vec::new();
        for sweep in &spec.sweeps {
            let resolved = sweep.workloads.resolve(&spec.scale, spec.workload_seed);
            let workloads = resolved.map_err(|error| PlanError::Traces {
                sweep: sweep.name.clone(),
                error,
            })?;
            let expansion = sweep.expand(&workloads, &spec.scale);
            // Sized up front: collecting in place would keep the job
            // vectors' far larger allocations alive as long as the plan.
            let mut alone = Vec::with_capacity(expansion.alone.len());
            for (key, job) in expansion.alone {
                let density = job.cfg().density;
                let content = alone_content
                    .entry(key)
                    .or_insert_with(|| job.content_key());
                alone.push(((density, key), admit(job, content)));
            }
            let mut planned = Vec::with_capacity(expansion.cells.len());
            for (workload, job) in expansion.cells {
                let (mechanism, density) = (job.cfg().mechanism, job.cfg().density);
                let content = cell_content
                    .entry(workloads[workload].alone_keys())
                    .or_insert_with(|| job.content_key());
                planned.push(PlannedCell {
                    fingerprint: admit(job, content),
                    mechanism,
                    density,
                    workload,
                });
            }
            sweeps.push(SweepPlan {
                name: sweep.name.clone(),
                cores: sweep.cores,
                workloads,
                alone,
                cells: planned,
            });
        }
        Ok(CampaignPlan {
            campaign: spec.name.clone(),
            cells,
            unique,
            sweeps,
        })
    }

    /// Expanded cells across all sweeps (before any deduplication).
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The jobs after in-flight dedup, in expansion order: every
    /// fingerprint the campaign needs a record for.
    pub fn unique(&self) -> &[(Fingerprint, Job)] {
        &self.unique
    }

    /// Assembles one grid per sweep, keyed by sweep name, from the records
    /// `lookup` finds. Rows come in (density, mechanism, workload) order
    /// and every lookup is by fingerprint, so one record set renders the
    /// same grids whether read from a local store or off a server. Trace
    /// bundles get intensity category 0 (captured traffic has no label).
    ///
    /// # Errors
    ///
    /// `ErrorKind::NotFound`, counting the absences, when any record the
    /// campaign needs is missing (it has not been fully drained).
    pub fn assemble<'r>(
        &self,
        lookup: impl Fn(Fingerprint) -> Option<&'r Record>,
    ) -> std::io::Result<BTreeMap<String, Grid>> {
        let mut missing = HashSet::new();
        let sweeps = self.sweeps.iter();
        let grids = sweeps
            .map(|sweep| (sweep.name.clone(), sweep.assemble(&lookup, &mut missing)))
            .collect();
        if missing.is_empty() {
            return Ok(grids);
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "campaign `{}` is not drained: {} of {} records missing",
                self.campaign,
                missing.len(),
                self.unique.len()
            ),
        ))
    }
}

impl SweepPlan {
    /// The sweep's grid, minus the rows whose records are `missing`.
    fn assemble<'r>(
        &self,
        lookup: &impl Fn(Fingerprint) -> Option<&'r Record>,
        missing: &mut HashSet<Fingerprint>,
    ) -> Grid {
        // Every alone job is looked up once, not per cell per core — and
        // one that a sweep narrower than its workloads never reads still
        // counts as missing, as it does for a worker. A record of the
        // wrong kind answers nothing: it counts as absent too.
        let mut alone: HashMap<(Density, AloneKey), f64> = HashMap::new();
        for &(key, fp) in &self.alone {
            if let Some(ipc) = lookup(fp).and_then(|r| r.alone_ipc) {
                alone.insert(key, ipc);
            } else {
                missing.insert(fp);
            }
        }
        let mut rows = Vec::new();
        for cell in &self.cells {
            let wl = &self.workloads[cell.workload];
            let Some(summary) = lookup(cell.fingerprint).and_then(|r| r.summary.as_ref()) else {
                missing.insert(cell.fingerprint);
                continue;
            };
            let keys = wl.alone_keys().into_iter().take(self.cores);
            let alone_ipcs: Option<Vec<f64>> = keys
                .map(|key| alone.get(&(cell.density, key)).copied())
                .collect();
            let Some(alone_ipcs) = alone_ipcs else {
                continue;
            };
            let metrics =
                Metrics::from_ipcs(&summary.ipc, &alone_ipcs, summary.energy_per_access_nj);
            rows.push(WsRow {
                workload: wl.name().to_string(),
                category: match wl {
                    CampaignWorkload::Synthetic(wl) => wl.category.percent(),
                    CampaignWorkload::Traced(_) => 0,
                },
                mechanism: cell.mechanism,
                density: cell.density,
                ws: metrics.weighted_speedup,
                hs: metrics.harmonic_speedup,
                max_slowdown: metrics.max_slowdown,
                energy_nj: metrics.energy_per_access_nj,
                total_ipc: summary.total_ipc,
            });
        }
        Grid::from_rows(rows)
    }
}
