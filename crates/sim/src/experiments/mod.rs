//! Experiment infrastructure shared by every paper artifact: run scaling,
//! parallel execution and the result [`harness::Grid`], and CSV /
//! markdown emission ([`report`]).
//!
//! The artifacts themselves — which sweeps each reduces from, under which
//! `--exp` name, its row types and its reduction over the computed
//! `Grid`s — are declared once in `dsarp_campaign::paper`; the
//! `experiments` binary (in `dsarp-serve`) computes every grid through the
//! cached, resumable campaign engine and reduces the table's artifacts
//! from them.

pub mod harness;
pub mod report;

pub use harness::Scale;
