//! Trace-driven multicore front end for the DSARP reproduction.
//!
//! Models the paper's processor side (Table 1): 8 cores at 4 GHz, 3-wide
//! issue, 128-entry instruction window, 8 MSHRs per core, and a shared
//! 16-way 64 B-line last-level cache (512 KB slice per core) whose dirty
//! evictions become the DRAM write stream.
//!
//! The abstraction level matches the front ends used with DRAMSim2 and
//! Ramulator: instruction traces are `(bubbles, memory-op)` pairs; non-memory
//! instructions retire from the window at the issue width, memory
//! instructions hold their window slot until the cache hierarchy answers.
//! This captures exactly what refresh interference perturbs — stalls on a
//! full window or exhausted MSHRs while a request waits behind a refreshing
//! bank.
//!
//! # Example
//!
//! ```
//! use dsarp_cpu::{AccessResult, Core, CoreParams, MemKind, MemoryInterface, TraceOp, TraceSource};
//!
//! /// A trace that never touches memory.
//! struct ComputeOnly;
//! impl TraceSource for ComputeOnly {
//!     fn next_op(&mut self) -> TraceOp {
//!         TraceOp { bubbles: 1_000_000, kind: MemKind::Load, addr: 0, dependent: false }
//!     }
//! }
//!
//! /// A memory system that always hits.
//! struct AlwaysHit;
//! impl MemoryInterface for AlwaysHit {
//!     fn access(&mut self, _core: usize, _addr: u64, _store: bool) -> AccessResult {
//!         AccessResult::Hit
//!     }
//! }
//!
//! let mut core = Core::new(0, CoreParams::paper_default(), Box::new(ComputeOnly));
//! let mut mem = AlwaysHit;
//! for _ in 0..1000 {
//!     core.step(&mut mem);
//! }
//! // A pure-compute trace retires at nearly the full issue width.
//! assert!(core.ipc() > 2.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod llc;
mod mshr;
pub mod trace;
mod trace_file;
pub mod trace_v1;

pub use crate::core::{Core, CoreIdle, CoreParams, StallKind};
pub use llc::{Llc, LlcParams, LlcResult, LlcStats};
use mshr::ReqToken;
pub use trace::{MemKind, TraceOp, TraceSource};
pub use trace_file::TraceFileError;
pub use trace_v1::{
    read_trace_path, scan_trace_bytes, BinTraceSource, Fnv128, Materialize, TraceDialect,
};

/// Result of asking the memory hierarchy for a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// LLC hit: data available after the LLC hit latency.
    Hit,
    /// LLC miss: a DRAM request was created; [`Core::complete`] will be
    /// called with this token when the line arrives.
    Miss(ReqToken),
    /// The memory system cannot accept the request right now (queue full).
    /// The core must retry next cycle.
    Busy,
}

/// The memory hierarchy as seen by one core: the full system glue
/// (LLC + memory controllers) implements this in the `dsarp-sim` crate.
pub trait MemoryInterface {
    /// Requests the cache line containing `addr` on behalf of `core`.
    /// `is_store` marks the line dirty on fill/hit.
    fn access(&mut self, core: usize, addr: u64, is_store: bool) -> AccessResult;
}
