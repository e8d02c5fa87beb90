//! Figure 13 and the §6.1.2 DARP-component breakdown: average WS
//! improvement of every mechanism over the `REFab` baseline.

use super::harness::Grid;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// Mechanisms in the paper's Figure 13, plus the DARP out-of-order-only
/// configuration used for the §6.1.2 component breakdown.
pub const FIG13_MECHS: [Mechanism; 8] = [
    Mechanism::RefPb,
    Mechanism::Elastic,
    Mechanism::DarpOooOnly,
    Mechanism::Darp,
    Mechanism::SarpAb,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
    Mechanism::NoRefresh,
];

/// One bar of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig13Row {
    /// DRAM density.
    pub density: Density,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Gmean WS improvement over `REFab`, percent.
    pub gmean_over_refab_pct: f64,
}

/// Reduces a grid containing `RefAb` plus the Figure 13 mechanisms.
pub fn reduce(grid: &Grid, densities: &[Density]) -> Vec<Fig13Row> {
    let mut out = Vec::new();
    for &d in densities {
        for m in FIG13_MECHS {
            out.push(Fig13Row {
                density: d,
                mechanism: m,
                gmean_over_refab_pct: grid.gmean_improvement(m, Mechanism::RefAb, d),
            });
        }
    }
    out
}
