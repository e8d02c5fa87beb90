//! Figure 16: DDR4 fine-granularity refresh (2x/4x), Adaptive Refresh, and
//! DSARP, normalized to the `REFab` baseline.

use super::harness::Grid;
use crate::metrics::gmean;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// Mechanisms in Figure 16 (all normalized to `RefAb`).
pub const FIG16_MECHS: [Mechanism; 5] = [
    Mechanism::RefAb,
    Mechanism::Fgr2x,
    Mechanism::Fgr4x,
    Mechanism::AdaptiveRefresh,
    Mechanism::Dsarp,
];

/// One bar of Figure 16.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig16Row {
    /// DRAM density.
    pub density: Density,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Gmean WS normalized to `REFab` (1.0 = baseline).
    pub normalized_ws: f64,
}

/// Reduces a grid containing the Figure 16 mechanisms.
pub fn reduce(grid: &Grid, densities: &[Density]) -> Vec<Fig16Row> {
    let mut out = Vec::new();
    for &d in densities {
        for m in FIG16_MECHS {
            let ratios = grid.ws_ratios(m, Mechanism::RefAb, d);
            out.push(Fig16Row {
                density: d,
                mechanism: m,
                normalized_ws: gmean(&ratios),
            });
        }
    }
    out
}
