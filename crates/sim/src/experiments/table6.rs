//! Table 6: DSARP's gains at the relaxed 64 ms retention time
//! (`tREFIpb` = 7.8 µs/8). Refreshes are half as frequent, so all gains
//! shrink relative to the 32 ms main results — but stay positive and still
//! grow with density.

use super::harness::Grid;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One row of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table6Row {
    /// DRAM density.
    pub density: Density,
    /// Max WS improvement of DSARP over `REFpb`, percent.
    pub max_over_refpb_pct: f64,
    /// Max WS improvement over `REFab`, percent.
    pub max_over_refab_pct: f64,
    /// Gmean WS improvement over `REFpb`, percent.
    pub gmean_over_refpb_pct: f64,
    /// Gmean WS improvement over `REFab`, percent.
    pub gmean_over_refab_pct: f64,
}

/// Reduces a 64 ms-retention grid (containing `RefAb`, `RefPb` and
/// `Dsarp` rows) to Table 6.
pub fn reduce(grid: &Grid, densities: &[Density]) -> Vec<Table6Row> {
    densities
        .iter()
        .map(|&d| Table6Row {
            density: d,
            max_over_refpb_pct: grid.max_improvement(Mechanism::Dsarp, Mechanism::RefPb, d),
            max_over_refab_pct: grid.max_improvement(Mechanism::Dsarp, Mechanism::RefAb, d),
            gmean_over_refpb_pct: grid.gmean_improvement(Mechanism::Dsarp, Mechanism::RefPb, d),
            gmean_over_refab_pct: grid.gmean_improvement(Mechanism::Dsarp, Mechanism::RefAb, d),
        })
        .collect()
}
