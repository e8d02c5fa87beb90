//! Figure 14: DRAM energy per memory access under each mechanism.

use super::harness::Grid;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One bar of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig14Row {
    /// DRAM density.
    pub density: Density,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Mean energy per access across workloads (nJ).
    pub energy_nj: f64,
    /// Reduction vs `REFab`, percent (positive = less energy).
    pub reduction_vs_refab_pct: f64,
}

/// Mechanisms shown in Figure 14.
pub const FIG14_MECHS: [Mechanism; 8] = [
    Mechanism::RefAb,
    Mechanism::RefPb,
    Mechanism::Elastic,
    Mechanism::Darp,
    Mechanism::SarpAb,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
    Mechanism::NoRefresh,
];

fn mean_energy(grid: &Grid, m: Mechanism, d: Density) -> f64 {
    let vals: Vec<f64> = grid
        .rows()
        .iter()
        .filter(|r| r.mechanism == m && r.density == d && r.energy_nj > 0.0)
        .map(|r| r.energy_nj)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Reduces a grid containing the Figure 14 mechanisms.
pub fn reduce(grid: &Grid, densities: &[Density]) -> Vec<Fig14Row> {
    let mut out = Vec::new();
    for &d in densities {
        let base = mean_energy(grid, Mechanism::RefAb, d);
        for m in FIG14_MECHS {
            let e = mean_energy(grid, m, d);
            out.push(Fig14Row {
                density: d,
                mechanism: m,
                energy_nj: e,
                reduction_vs_refab_pct: if base > 0.0 {
                    (1.0 - e / base) * 100.0
                } else {
                    0.0
                },
            });
        }
    }
    out
}
