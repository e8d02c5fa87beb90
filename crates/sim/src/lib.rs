//! Full-system simulator and experiment drivers for the DSARP reproduction.
//!
//! Wires together the substrates — trace-driven cores and LLC
//! ([`dsarp_cpu`]), synthetic workloads ([`dsarp_workloads`]), the DARP/SARP
//! memory controller ([`dsarp_core`]) and the cycle-accurate DRAM device
//! ([`dsarp_dram`]) — into the paper's evaluated system (Table 1): 8 cores
//! at 4 GHz over 2 channels × 2 ranks × 8 banks × 8 subarrays of
//! DDR3-1333.
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation; the `experiments` binary in the `dsarp-campaign`
//! crate (`cargo run --release -p dsarp-campaign --bin experiments`) drives
//! them through the cached campaign engine and writes them to `results/`.
//!
//! # Example
//!
//! ```
//! use dsarp_core::Mechanism;
//! use dsarp_dram::Density;
//! use dsarp_sim::{SimConfig, SystemBuilder};
//! use dsarp_workloads::mixes;
//!
//! let wl = &mixes::paper_workloads(8, 42)[80]; // a memory-intensive mix
//! let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32);
//! let stats = SystemBuilder::new(&cfg).workload(wl).build().run(20_000);
//! assert!(stats.total_ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod experiments;
mod metrics;
mod system;
mod telemetry;

pub use config::SimConfig;
pub use metrics::Metrics;
pub use system::{RunStats, System, SystemBuilder, WarmKey, WarmState};
pub use telemetry::SimTelemetry;
