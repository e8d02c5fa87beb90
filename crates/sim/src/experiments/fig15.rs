//! Figure 15: DSARP's WS improvement over `REFab` and `REFpb` as memory
//! intensity and DRAM density vary.

use super::harness::Grid;
use crate::metrics::{gmean, improvement_pct};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One bar of Figure 15.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig15Row {
    /// Intensity category (% memory-intensive; `all` = average).
    pub category: String,
    /// DRAM density.
    pub density: Density,
    /// DSARP gmean WS improvement over `REFab`, percent.
    pub over_refab_pct: f64,
    /// DSARP gmean WS improvement over `REFpb`, percent.
    pub over_refpb_pct: f64,
}

fn improvement(grid: &Grid, base: Mechanism, d: Density, cat: Option<u32>) -> f64 {
    let ratios: Vec<f64> = grid
        .rows()
        .iter()
        .filter(|r| {
            r.mechanism == Mechanism::Dsarp && r.density == d && cat.is_none_or(|c| r.category == c)
        })
        .filter_map(|r| grid.get(&r.workload, base, d).map(|b| r.ws / b.ws))
        .collect();
    improvement_pct(gmean(&ratios), 1.0)
}

/// Reduces a grid containing `RefAb`, `RefPb` and `Dsarp`.
pub fn reduce(grid: &Grid, densities: &[Density]) -> Vec<Fig15Row> {
    let mut out = Vec::new();
    for &d in densities {
        for cat in [0u32, 25, 50, 75, 100] {
            out.push(Fig15Row {
                category: cat.to_string(),
                density: d,
                over_refab_pct: improvement(grid, Mechanism::RefAb, d, Some(cat)),
                over_refpb_pct: improvement(grid, Mechanism::RefPb, d, Some(cat)),
            });
        }
        out.push(Fig15Row {
            category: "all".into(),
            density: d,
            over_refab_pct: improvement(grid, Mechanism::RefAb, d, None),
            over_refpb_pct: improvement(grid, Mechanism::RefPb, d, None),
        });
    }
    out
}
