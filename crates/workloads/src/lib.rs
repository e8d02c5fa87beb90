//! Synthetic benchmarks and multiprogrammed workload mixes.
//!
//! The paper drives its simulator with Pin traces of SPEC CPU2006, STREAM,
//! TPC and an HPCC-RandomAccess-like microbenchmark (§5), classifying each
//! benchmark as memory-intensive (MPKI ≥ 10) or non-intensive (MPKI < 10)
//! and forming 100 random 8-core mixes in five intensity categories
//! (0/25/50/75/100% intensive).
//!
//! Those traces are proprietary-toolchain artifacts, so this crate provides
//! the closest synthetic equivalent: statistical trace generators
//! ([`SyntheticTrace`]) parameterized per benchmark archetype
//! ([`BenchmarkSpec`]) by memory intensity, row-buffer/stream locality,
//! store fraction, working-set size and load-dependence (MLP). The archetype
//! catalogue ([`catalogue`]) mimics the paper's suite; [`mixes`] builds the
//! same 100-workload evaluation set and the 16 memory-intensive mixes used
//! for sensitivity studies.
//!
//! # Example
//!
//! ```
//! use dsarp_workloads::{catalogue, mixes, SyntheticTrace};
//! use dsarp_cpu::TraceSource;
//!
//! let specs = catalogue::all();
//! assert!(specs.len() >= 16);
//!
//! // Build the paper's 100-workload evaluation set for 8 cores.
//! let workloads = mixes::paper_workloads(8, 42);
//! assert_eq!(workloads.len(), 100);
//!
//! // Instantiate a trace for core 3 of the first workload.
//! let spec = workloads[0].benchmarks[3];
//! let mut trace = SyntheticTrace::new(spec, 3, 8, 0xBEEF);
//! let op = trace.next_op();
//! assert!(op.addr < 16 * (1 << 30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod mixes;
mod spec;
mod synth;

pub use mixes::{IntensityCategory, Workload};
pub use spec::{measured_mpki, BenchmarkSpec, MemClass};
pub use synth::SyntheticTrace;
