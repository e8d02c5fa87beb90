//! Umbrella crate for the DSARP reproduction workspace.
//!
//! Holds the repo-level integration tests (`tests/`) and the quickstart
//! example, which name the substrate crates directly. See `crates/*` for
//! the actual implementation and `crates/campaign` for the experiment
//! orchestration layer.

#![forbid(unsafe_code)]
