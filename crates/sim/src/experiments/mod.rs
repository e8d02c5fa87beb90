//! Experiment drivers: one module per table/figure in the paper's
//! evaluation, plus the shared [`harness`] and [`report`] infrastructure.
//!
//! Which artifact reduces from which sweeps, and under which `--exp`
//! name, is declared once in `dsarp_campaign::paper::ARTIFACTS`. Each
//! module here holds one artifact's row types and its pure `reduce(..)`
//! over pre-computed `Grid`s ([`fig05`] is analytic); the `experiments`
//! binary (in `dsarp-serve`) computes every grid through the cached,
//! resumable campaign engine and reduces the table's artifacts from them.

pub mod ablations;
pub mod chart;
pub mod fig05;
pub mod fig06_07;
pub mod fig12_table2;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod harness;
pub mod report;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

pub use harness::Scale;
