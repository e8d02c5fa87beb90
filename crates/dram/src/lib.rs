//! Cycle-accurate DDR3 DRAM device model with per-bank refresh and SARP.
//!
//! This crate is the device-side substrate for the reproduction of
//! *"Improving DRAM Performance by Parallelizing Refreshes with Accesses"*
//! (Chang et al., HPCA 2014). It models:
//!
//! * the DRAM hierarchy — channels, ranks, banks, subarrays, rows
//!   ([`Geometry`], [`Location`]);
//! * the full DDR3-1333 timing-constraint algebra — `tRCD`, `tRP`, `tRAS`,
//!   `tRC`, `tCL`, `tCWL`, `tBL`, `tCCD`, `tRTP`, `tWR`, `tWTR`, read/write
//!   turnaround, `tRRD`, `tFAW`, `tREFIab/pb`, `tRFCab/pb` ([`TimingParams`]);
//! * both refresh granularities of the paper — all-bank refresh (`REFab`)
//!   and LPDDR-style per-bank refresh (`REFpb`) — plus DDR4 fine-granularity
//!   refresh modes ([`FgrMode`]);
//! * **SARP** (Subarray Access Refresh Parallelization): when built with
//!   [`SarpSupport::Enabled`], a bank that is refreshing one subarray keeps
//!   serving `ACT`/`RD`/`WR` to its other subarrays, while `tFAW`/`tRRD` are
//!   inflated by the power-integrity factors of the paper's Eq. (1)–(3);
//! * an IDD-based energy model following the Micron power-calculator
//!   methodology ([`PowerModel`], [`EnergyBreakdown`]).
//!
//! The memory controller (crate `dsarp-core`) drives a [`DramChannel`] by
//! issuing [`Command`]s; the channel validates every command against the
//! timing constraints and returns a `Receipt` with the data-return cycle.
//! Validation is one walk over the command's gates, read two ways:
//! [`DramChannel::check`] ("legal now?") and [`DramChannel::earliest_issue`]
//! ("legal from when?"). The device does not judge its own refresh
//! deadlines: whether every bank is refreshed in time is judged from the
//! `(cycle, Command)` log ([`DramChannel::enable_command_log`]).
//! Refresh state lives here once: each bank's refresh row counter and the
//! subarray an in-flight SARP refresh holds, which the controller reads
//! through [`DramChannel::refreshing_subarray`] (§4.3.2). Every refresh
//! command names its bank, so the `REFpb` bank order belongs to the
//! controller's refresh policy.
//!
//! # Example
//!
//! ```
//! use dsarp_dram::{
//!     Command, Density, DramChannel, FgrMode, Geometry, Retention, SarpSupport, TimingParams,
//! };
//!
//! let geom = Geometry::paper_default();
//! let timing = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
//! let mut chan = DramChannel::new(geom, timing, SarpSupport::Disabled);
//!
//! // Activate row 7 of (rank 0, bank 0), then read column 3 from it.
//! chan.issue(Command::Activate { rank: 0, bank: 0, row: 7 }, 0).unwrap();
//! let t_rd = chan.timing().rcd; // earliest legal read
//! let receipt = chan
//!     .issue(Command::Read { rank: 0, bank: 0, col: 3, auto_precharge: false }, t_rd)
//!     .unwrap();
//! assert_eq!(receipt.data_ready, Some(t_rd + chan.timing().cl + chan.timing().bl));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod channel;
mod command;
mod geometry;
mod power;
mod rank;
mod sarp;
pub mod timing;

pub use channel::{DramChannel, IssueError};
pub use command::Command;
pub use geometry::{Geometry, Location};
pub use power::{EnergyBreakdown, IddValues, PowerModel};
pub use sarp::SarpSupport;
pub use timing::{Density, FgrMode, Retention, TimingParams};

/// A point in time, measured in DRAM command-clock cycles (tCK ticks).
///
/// At DDR3-1333 one cycle is 1.5 ns; the paper's 4 GHz cores run exactly
/// 6 CPU cycles per DRAM cycle.
pub type Cycle = u64;

/// Number of CPU cycles per DRAM command-clock cycle for the paper's system
/// (4 GHz cores over a DDR3-1333 command clock of 666.67 MHz).
pub const CPU_CYCLES_PER_DRAM_CYCLE: u64 = 6;
