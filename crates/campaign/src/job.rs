//! Individual simulation jobs: the unit of caching and execution.

use crate::fingerprint::{Fingerprint, Hasher};
use crate::traces::{TraceRef, TraceWorkload};
use dsarp_sim::{SimConfig, SimTelemetry, SystemBuilder, WarmKey, WarmState};
use dsarp_workloads::{BenchmarkSpec, Workload};
use serde::{Deserialize, Serialize, Writer};
use serde_json::{Map, Value};
use std::fmt::{self, Write};

/// The raw, normalization-free result of one multiprogrammed run — enough
/// to recompute every [`dsarp_sim::Metrics`] once alone-IPCs are known.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Per-core IPC.
    pub ipc: Vec<f64>,
    /// Energy per DRAM access (nJ).
    pub energy_per_access_nj: f64,
    /// Sum of per-core IPCs.
    pub total_ipc: f64,
}

/// One schedulable simulation.
#[derive(Debug, Clone)]
pub enum Job {
    /// Single-benchmark alone-IPC measurement.
    Alone {
        /// The (already `alone()`-projected) configuration.
        cfg: SimConfig,
        /// The benchmark under measurement.
        bench: &'static BenchmarkSpec,
        /// DRAM cycles to simulate.
        cycles: u64,
    },
    /// One multiprogrammed grid cell.
    Grid {
        /// Full system configuration.
        cfg: SimConfig,
        /// The workload mix.
        workload: Workload,
        /// DRAM cycles to simulate.
        cycles: u64,
    },
    /// Single-trace alone-IPC measurement (trace-driven workloads).
    TraceAlone {
        /// The (already `alone()`-projected) configuration.
        cfg: SimConfig,
        /// The trace under measurement.
        trace: TraceRef,
        /// DRAM cycles to simulate.
        cycles: u64,
    },
    /// One multiprogrammed grid cell replaying a bundle of trace files.
    TraceGrid {
        /// Full system configuration.
        cfg: SimConfig,
        /// The trace bundle (one file per core).
        workload: TraceWorkload,
        /// DRAM cycles to simulate.
        cycles: u64,
    },
}

/// What a job produced.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Alone-IPC of the measured benchmark.
    Alone(f64),
    /// Raw stats of the multiprogrammed run.
    Grid(RunSummary),
}

/// What [`Job::content_key`] leaves for [`Job::fingerprint_with`]: the
/// key's hash state up to its `cfg` member's value, and the text that
/// closes the key after `kind` (empty unless the content sorts there).
#[derive(Debug, Clone)]
pub(crate) struct ContentKey {
    head: Hasher,
    tail: String,
}

impl Job {
    /// A human-readable label (for logs and store records).
    pub fn label(&self) -> String {
        match self {
            Job::Alone { cfg, bench, .. } => {
                format!("alone/{}@{}", bench.name, cfg.density)
            }
            Job::Grid { cfg, workload, .. } => {
                format!(
                    "{}/{}@{}",
                    workload.name,
                    cfg.mechanism.label(),
                    cfg.density
                )
            }
            Job::TraceAlone { cfg, trace, .. } => {
                format!("trace-alone/{}@{}", trace.name, cfg.density)
            }
            Job::TraceGrid { cfg, workload, .. } => {
                format!(
                    "trace/{}/{}@{}",
                    workload.name,
                    cfg.mechanism.label(),
                    cfg.density
                )
            }
        }
    }

    /// The scalar members of the job's key — `(kind, content key, cfg,
    /// cycles)` — where the content key names what [`Self::content`] holds.
    fn key_head(&self) -> (&'static str, &'static str, &SimConfig, u64) {
        match self {
            Job::Alone { cfg, cycles, .. } => ("alone", "bench", cfg, *cycles),
            Job::Grid { cfg, cycles, .. } => ("grid", "benchmarks", cfg, *cycles),
            Job::TraceAlone { cfg, cycles, .. } => ("trace-alone", "trace", cfg, *cycles),
            Job::TraceGrid { cfg, cycles, .. } => ("trace-grid", "traces", cfg, *cycles),
        }
    }

    /// What the job runs, as it enters the key: benchmark parameters, or
    /// each trace's content hash.
    fn write_content<W: Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        match self {
            Job::Alone { bench, .. } => bench.serialize(w),
            Job::Grid { workload, .. } => workload.benchmarks.serialize(w),
            Job::TraceAlone { trace, .. } => w.string(&trace.content_hash.to_string()),
            Job::TraceGrid { workload, .. } => {
                let hashes = workload.traces.iter().map(|t| t.content_hash.to_string());
                w.array(&hashes.collect::<Vec<_>>())
            }
        }
    }

    /// The job's configuration.
    pub(crate) fn cfg(&self) -> &SimConfig {
        self.key_head().2
    }

    /// The job's content key: everything that determines its result.
    ///
    /// Workload *names* are deliberately excluded — two mixes assembling
    /// the same benchmarks in the same order onto the same configuration
    /// are the same simulation, whatever they are called. Trace jobs key
    /// on each file's *content hash*, never its path or name: renaming or
    /// moving a trace keeps every cached cell, while editing one byte of
    /// it invalidates exactly the cells that replay it.
    ///
    /// `fingerprint_value(&job.key_value())` defines the fingerprint;
    /// [`Self::fingerprint`] computes the same hash without the tree.
    pub fn key_value(&self) -> Value {
        let (kind, what, cfg, cycles) = self.key_head();
        let mut m = Map::new();
        m.insert("kind".into(), Value::String(kind.into()));
        m.insert("cfg".into(), serde_json::to_value(cfg).expect("infallible"));
        let mut content = String::new();
        self.write_content(&mut Writer::new(&mut content))
            .expect("writing to a String cannot fail");
        let content = serde_json::parse_value(&content).expect("keys are JSON");
        m.insert(what.into(), content);
        m.insert(
            "cycles".into(),
            serde_json::to_value(cycles).expect("infallible"),
        );
        Value::Object(m)
    }

    /// The key's content member, hashed as far as it can be without the
    /// configuration — identical for every job of a kind that runs the
    /// same benchmarks or traces, so a campaign computes it once however
    /// many cells share it. Members stream into the hash in sorted-key
    /// order: `bench` / `benchmarks` sort before `cfg`, so the ~1 kB of
    /// benchmark parameters is written straight into the hash state;
    /// `trace` / `traces` sort after `kind` and are kept as text to close
    /// the key.
    pub(crate) fn content_key(&self) -> ContentKey {
        let (_, what, _, _) = self.key_head();
        assert!(!("cfg"..="kind").contains(&what), "`{what}` sorts mid-key");
        let (mut head, mut tail) = (Hasher::new(), String::new());
        let written = if what < "cfg" {
            write!(head, "{{\"{what}\":")
                .and_then(|()| self.write_content(&mut Writer::canonical(&mut head)))
                .and_then(|()| head.write_str(",\"cfg\":"))
        } else {
            write!(tail, ",\"{what}\":")
                .and_then(|()| self.write_content(&mut Writer::canonical(&mut tail)))
                .and_then(|()| head.write_str("{\"cfg\":"))
        };
        written.expect("hashing cannot fail");
        ContentKey { head, tail }
    }

    /// The canonical rendering of a configuration as a key's `cfg` member.
    pub(crate) fn cfg_fragment(cfg: &SimConfig) -> String {
        let mut text = String::new();
        cfg.serialize(&mut Writer::canonical(&mut text))
            .expect("writing to a String cannot fail");
        text
    }

    /// The job's fingerprint from its [`Self::content_key`] and the
    /// [`Self::cfg_fragment`] of its configuration: the hash of the
    /// canonical rendering of [`Self::key_value`], resumed after the
    /// content it shares with other jobs.
    pub(crate) fn fingerprint_with(&self, content: &ContentKey, cfg: &str) -> Fingerprint {
        let (kind, _, _, cycles) = self.key_head();
        let mut h = content.head;
        let tail = &content.tail;
        write!(h, "{cfg},\"cycles\":{cycles},\"kind\":\"{kind}\"{tail}}}")
            .expect("hashing cannot fail");
        h.finish()
    }

    /// The job's content fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint_with(&self.content_key(), &Self::cfg_fragment(self.cfg()))
    }

    /// Runs the simulation and packages the result as a store
    /// [`Record`](crate::store::Record) under `fp`, plus the run's
    /// [`SimTelemetry`] sidecar when `telemetry` is set. The
    /// single-process executor and distributed workers both persist
    /// through this, so record shapes cannot drift apart; the record is
    /// built from the same fields whether telemetry is sampled or not
    /// (sampling is observationally pure), so record bytes — and
    /// therefore shard files — are identical either way. `per_cycle`
    /// forces [`System::run_per_cycle`] instead of the skip-ahead
    /// [`System::run`]; results are identical by the simulator's
    /// exactness guarantee, only wall time differs.
    ///
    /// [`System::run`]: dsarp_sim::System::run
    /// [`System::run_per_cycle`]: dsarp_sim::System::run_per_cycle
    pub(crate) fn run_record(
        &self,
        fp: Fingerprint,
        telemetry: bool,
        per_cycle: bool,
        warm: Option<WarmState>,
    ) -> (crate::store::Record, Option<Box<SimTelemetry>>) {
        let (output, telemetry) = self.simulate(telemetry, per_cycle, warm);
        let record = match output {
            JobOutput::Alone(ipc) => crate::store::Record::alone(fp, self.label(), ipc),
            JobOutput::Grid(summary) => crate::store::Record::grid(fp, self.label(), summary),
        };
        (record, telemetry)
    }

    /// Runs the simulation.
    ///
    /// # Panics
    ///
    /// Trace jobs panic (with a message naming the file) if a trace file
    /// vanishes or its content changes between campaign expansion and
    /// execution — see `TraceRef::open`.
    pub fn execute(&self) -> JobOutput {
        self.simulate(false, false, None).0
    }

    /// What a synthetic job's functional warm-up depends on, so jobs with
    /// equal keys can start from one [`WarmState`]; `None` for trace jobs,
    /// which warm up per cell. An alone job's key is its one benchmark at
    /// one core, whatever the density.
    pub(crate) fn warm_key(&self) -> Option<WarmKey> {
        let synthetic = matches!(self, Job::Alone { .. } | Job::Grid { .. });
        synthetic.then(|| self.builder(&mut None).warm_key())
    }

    /// The functional warm-up this job's system starts with, for it and
    /// every job with the same [`Self::warm_key`] to start from.
    pub(crate) fn warm(&self) -> WarmState {
        self.builder(&mut None).warm()
    }

    /// The builder of the job's [`dsarp_sim::System`]; an alone job's
    /// one-benchmark workload lives in `alone`.
    fn builder<'a>(&'a self, alone: &'a mut Option<Workload>) -> SystemBuilder<'a> {
        let builder = SystemBuilder::new(self.cfg());
        match self {
            Job::Alone { bench, .. } => builder.workload(alone.insert(Workload::alone_for(bench))),
            Job::Grid { workload, .. } => builder.workload(workload),
            Job::TraceAlone { trace, .. } => builder.trace_sources(vec![trace.open()]),
            Job::TraceGrid { cfg, workload, .. } => {
                builder.trace_sources(workload.sources(cfg.cores))
            }
        }
    }

    /// Builds the job's [`dsarp_sim::System`] — from `warm` if given —
    /// runs it and reduces the raw stats to the job's output.
    fn simulate(
        &self,
        telemetry: bool,
        per_cycle: bool,
        warm: Option<WarmState>,
    ) -> (JobOutput, Option<Box<SimTelemetry>>) {
        let mut alone = None;
        let mut builder = self.builder(&mut alone).telemetry(telemetry);
        if let Some(state) = warm {
            builder = builder.warmed(state);
        }
        let mut system = builder.build();
        let cycles = self.key_head().3;
        let mut stats = if per_cycle {
            system.run_per_cycle(cycles)
        } else {
            system.run(cycles)
        };
        let telemetry = stats.telemetry.take();
        let output = match self {
            Job::Alone { .. } | Job::TraceAlone { .. } => JobOutput::Alone(stats.ipc[0].max(1e-9)),
            Job::Grid { .. } | Job::TraceGrid { .. } => JobOutput::Grid(RunSummary {
                energy_per_access_nj: stats.energy_per_access_nj(),
                total_ipc: stats.total_ipc(),
                ipc: stats.ipc,
            }),
        };
        (output, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsarp_core::Mechanism;
    use dsarp_dram::Density;

    fn workload() -> Workload {
        dsarp_workloads::mixes::intensive_mixes(4, 1)[0].clone()
    }

    fn grid_job(cfg: SimConfig, cycles: u64) -> Job {
        Job::Grid {
            cfg,
            workload: workload(),
            cycles,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32).with_cores(4);
        let base = grid_job(cfg, 10_000);
        assert_eq!(base.fingerprint(), grid_job(cfg, 10_000).fingerprint());

        let other_density = SimConfig::paper(Mechanism::Dsarp, Density::G8).with_cores(4);
        let other_mech = SimConfig::paper(Mechanism::RefAb, Density::G32).with_cores(4);
        let more_subarrays = cfg.with_subarrays(64);
        let other_seed = cfg.with_seed(99);
        let mut fps = vec![
            base.fingerprint(),
            grid_job(other_density, 10_000).fingerprint(),
            grid_job(other_mech, 10_000).fingerprint(),
            grid_job(more_subarrays, 10_000).fingerprint(),
            grid_job(other_seed, 10_000).fingerprint(),
            grid_job(cfg, 20_000).fingerprint(),
        ];
        fps.sort();
        fps.dedup();
        assert_eq!(
            fps.len(),
            6,
            "every knob change must change the fingerprint"
        );
    }

    #[test]
    fn workload_name_does_not_affect_fingerprint() {
        let cfg = SimConfig::paper(Mechanism::RefPb, Density::G16).with_cores(4);
        let mut renamed = workload();
        renamed.name = "other-name".into();
        let a = Job::Grid {
            cfg,
            workload: workload(),
            cycles: 5_000,
        };
        let b = Job::Grid {
            cfg,
            workload: renamed,
            cycles: 5_000,
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn trace_fingerprints_key_on_content_not_path() {
        use crate::traces::{TraceRef, TraceWorkload};
        let tref = |path: &str, name: &str, hash: u128| {
            TraceRef::detached(path, name, Fingerprint(hash), 10)
        };
        let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32).with_cores(2);
        let grid = |a: TraceRef, b: TraceRef| Job::TraceGrid {
            cfg,
            workload: TraceWorkload::new(vec![a, b]),
            cycles: 5_000,
        };
        let base = grid(tref("/x/a.trace", "a", 1), tref("/x/b.trace", "b", 2));
        // Moving/renaming the files changes nothing.
        let moved = grid(tref("/y/a2.trace", "a2", 1), tref("/y/b2.trace", "b2", 2));
        assert_eq!(base.fingerprint(), moved.fingerprint());
        // Editing one trace's content changes the fingerprint.
        let edited = grid(tref("/x/a.trace", "a", 9), tref("/x/b.trace", "b", 2));
        assert_ne!(base.fingerprint(), edited.fingerprint());
        // Core order matters (core 0 and core 1 see different streams).
        let swapped = grid(tref("/x/b.trace", "b", 2), tref("/x/a.trace", "a", 1));
        assert_ne!(base.fingerprint(), swapped.fingerprint());
        // Alone jobs on the same trace are a different kind.
        let alone = Job::TraceAlone {
            cfg: cfg.alone(),
            trace: tref("/x/a.trace", "a", 1),
            cycles: 5_000,
        };
        let alone_moved = Job::TraceAlone {
            cfg: cfg.alone(),
            trace: tref("/z/r.trace", "r", 1),
            cycles: 5_000,
        };
        assert_eq!(alone.fingerprint(), alone_moved.fingerprint());
        assert_ne!(alone.fingerprint(), base.fingerprint());
    }

    #[test]
    fn alone_and_grid_kinds_do_not_collide() {
        let cfg = SimConfig::paper(Mechanism::NoRefresh, Density::G8);
        let alone = Job::Alone {
            cfg: cfg.alone(),
            bench: workload().benchmarks[0],
            cycles: 5_000,
        };
        let grid = grid_job(cfg, 5_000);
        assert_ne!(alone.fingerprint(), grid.fingerprint());
    }
}
