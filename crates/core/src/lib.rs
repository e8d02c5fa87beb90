//! DARP/SARP memory controller — the primary contribution of
//! *"Improving DRAM Performance by Parallelizing Refreshes with Accesses"*
//! (Chang et al., HPCA 2014), reimplemented as a library.
//!
//! The crate provides a per-channel DDR3 memory controller
//! ([`MemoryController`]) with:
//!
//! * 64/64-entry read/write request queues with batched write draining
//!   (writeback mode with high/low watermarks, [`queues::RequestQueues`]);
//! * FR-FCFS scheduling with the paper's closed-row policy
//!   (`controller`);
//! * a pluggable refresh-scheduling policy (`refresh::RefreshPolicy`)
//!   with implementations of every mechanism the paper evaluates:
//!   - `REFab` — baseline all-bank refresh (`refresh::AllBankRefresh`),
//!   - `REFpb` — baseline round-robin per-bank refresh
//!     (`refresh::PerBankRefresh`),
//!   - Elastic Refresh \[Stuecheli+ MICRO'10\] (`refresh::ElasticRefresh`),
//!   - **DARP** — out-of-order per-bank refresh + write-refresh
//!     parallelization (`refresh::Darp`),
//!   - DDR4 Fine Granularity Refresh 2x/4x (`refresh::AllBankRefresh` in
//!     [`dsarp_dram::FgrMode::X2`] / [`dsarp_dram::FgrMode::X4`]),
//!   - Adaptive Refresh \[Mukundan+ ISCA'13\] (`refresh::AdaptiveRefresh`),
//!   - the ideal no-refresh bound (`refresh::NoRefresh`);
//! * SARP support: when the attached [`dsarp_dram::DramChannel`] is built
//!   with [`dsarp_dram::SarpSupport::Enabled`], the controller reads the
//!   refreshing subarray per bank from
//!   [`dsarp_dram::DramChannel::refreshing_subarray`] (paper §4.3.2) and
//!   keeps scheduling around it.
//!
//! The paper's mechanism names map onto configurations of this crate:
//!
//! | Paper name | Policy | SARP |
//! |---|---|---|
//! | `REFab` | `refresh::AllBankRefresh` | off |
//! | `REFpb` | `refresh::PerBankRefresh` | off |
//! | Elastic | `refresh::ElasticRefresh` | off |
//! | DARP | `refresh::Darp` | off |
//! | SARPab | `refresh::AllBankRefresh` | **on** |
//! | SARPpb | `refresh::PerBankRefresh` | **on** |
//! | DSARP | `refresh::Darp` | **on** |
//!
//! # Example
//!
//! ```
//! use dsarp_core::{Mechanism, MemoryController, Request};
//! use dsarp_dram::{Density, DramChannel, Geometry, Retention, TimingParams};
//!
//! let geom = Geometry::paper_default();
//! let timing = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
//! let mech = Mechanism::Dsarp;
//! let mut chan = DramChannel::new(geom, timing, mech.sarp_support());
//! let mut mc = MemoryController::new(0, geom, timing, mech, 7);
//!
//! // Enqueue a read for physical address 0 and run the controller.
//! let loc = geom.decode(0);
//! assert!(mc.try_enqueue_read(Request::read(1, loc, 0, 0)));
//! let mut done = Vec::new();
//! for now in 0..200 {
//!     mc.step(&mut chan, now, &mut done);
//! }
//! assert_eq!(done.len(), 1, "the read completed");
//! assert_eq!(done[0].id, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod queues;
mod refresh;
mod request;

pub use controller::{Completion, ControllerStats, MemoryController, SchedulerScan};
pub use queues::{Probe, RequestQueues};
pub use refresh::{DarpStats, Mechanism};
pub use request::Request;
