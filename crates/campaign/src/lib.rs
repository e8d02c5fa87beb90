//! Campaign engine: cached, resumable, sharded experiment orchestration.
//!
//! The paper's evaluation is a large rectangular sweep — 100 workloads ×
//! 12 mechanisms × 3 densities plus eight sensitivity studies — and the
//! simulator recomputed all of it on every invocation. This crate turns
//! that one-shot harness into an incremental service:
//!
//! * [`CampaignSpec`] describes a campaign declaratively as named sweeps
//!   over the evaluation axes (workloads, mechanisms, densities, cores,
//!   subarrays, retention, `tFAW`, watermarks, seeds).
//! * Every expanded cell is a [`Job`] keyed by a content
//!   [`Fingerprint`] of `(SimConfig, workload, cycles)`; identical cells
//!   across sweeps collapse to one simulation. A [`CampaignPlan`] expands
//!   and fingerprints a whole campaign once, for every consumer.
//! * The [`Store`] persists results as JSON-lines shards under
//!   `.campaign/<name>/`; completed jobs are flushed immediately, so a
//!   killed campaign resumes where it stopped and an identical re-run
//!   simulates nothing.
//! * [`Campaign::run`] executes the misses on the shared thread pool and
//!   assembles per-sweep `dsarp_sim::experiments::harness::Grid`s, which
//!   the [`paper`] table's reducers consume.
//!
//! * The [`traces`] module adds **trace-driven workloads**: a
//!   [`WorkloadSet::TraceDir`] sweeps a whole directory of captured
//!   Ramulator-format trace files (replayed through `dsarp-cpu`'s trace
//!   reader), folding each file's content hash into the job fingerprint —
//!   editing one trace invalidates exactly its own cells; the
//!   `trace-capture` subcommand records synthetic workloads as trace
//!   suites.
//! * The [`lease`] module adds **distributed execution**: N independent
//!   `experiments worker` processes lease shards of the missing-job set
//!   through a cooperative `shard-NN.lock` protocol (owner + heartbeat,
//!   stale leases reclaimed after a TTL), each appending only to its own
//!   shard files; `experiments merge` waits for the drain, reclaims dead
//!   workers' cells, and reduces artifacts byte-identically to a
//!   single-process run.
//!
//! The [`paper`] module declares every artifact of the paper once (its
//! `--exp` names, sweeps, output files and reduction); the `experiments`
//! binary in `dsarp-serve` regenerates them through the engine:
//!
//! ```text
//! cargo run --release -p dsarp-serve --bin experiments -- --scale quick
//! ```
//!
//! # Example
//!
//! ```
//! use dsarp_campaign::{Campaign, CampaignSpec, SweepSpec, WorkloadSet};
//! use dsarp_core::Mechanism;
//! use dsarp_dram::Density;
//! use dsarp_sim::experiments::Scale;
//!
//! let scale = Scale { dram_cycles: 2_000, alone_cycles: 1_000,
//!                     per_category: 1, threads: 2, warmup_ops: 500 };
//! let spec = CampaignSpec::new("doc", scale).with_sweep(SweepSpec::new(
//!     "demo",
//!     WorkloadSet::Intensive { cores: 2 },
//!     &[Mechanism::RefAb, Mechanism::Dsarp],
//!     &[Density::G8],
//! ));
//! let dir = std::env::temp_dir().join("dsarp-campaign-doctest");
//! # std::fs::remove_dir_all(&dir).ok();
//! let mut campaign = Campaign::open(&dir, spec.clone()).unwrap();
//! let first = campaign.run().unwrap();
//! assert!(first.grid("demo").rows().len() > 0);
//!
//! // Re-running the identical campaign simulates nothing.
//! let again = Campaign::open(&dir, spec).unwrap().run().unwrap();
//! assert_eq!(again.stats.simulated, 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod events;
pub mod export;
pub mod fingerprint;
mod job;
pub mod lease;
pub mod paper;
mod plan;
pub mod remote;
mod retry;
mod runner;
mod spec;
mod status;
pub mod store;
pub mod traces;

pub use backend::{AcquireOutcome, LocalBackend, StoreBackend};
pub use events::{Event, EventLog};
pub use fingerprint::Fingerprint;
pub use job::{Job, RunSummary};
pub use plan::CampaignPlan;
pub use remote::RemoteStore;
pub use runner::{
    CacheStats, Campaign, CampaignClient, CampaignReport, PhaseTiming, WorkerOptions,
};
pub use spec::{CampaignSpec, SweepSpec, WorkloadSet};
pub use status::CampaignStatus;
pub use store::{Record, Store};
pub use traces::{TraceRef, TraceWorkload};
