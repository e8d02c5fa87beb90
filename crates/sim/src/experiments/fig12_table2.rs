//! Figure 12 and Table 2: the paper's headline results.
//!
//! * Fig. 12 — per-workload WS improvement of `REFpb`, DARP, SARPpb and
//!   DSARP over the `REFab` baseline, sorted by the DARP improvement,
//!   for 8/16/32 Gb.
//! * Table 2 — maximum and geometric-mean WS improvement of DARP / SARPpb /
//!   DSARP over both `REFpb` and `REFab` per density.

use super::harness::Grid;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// Mechanisms plotted in Figure 12 (over the `REFab` baseline).
pub const FIG12_MECHS: [Mechanism; 4] = [
    Mechanism::RefPb,
    Mechanism::Darp,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
];

/// One plotted point of Figure 12.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Point {
    /// DRAM density.
    pub density: Density,
    /// Position on the x axis after sorting by DARP improvement.
    pub sorted_index: usize,
    /// Workload name.
    pub workload: String,
    /// Intensity category (%).
    pub category: u32,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// WS normalized to `REFab` for the same workload.
    pub ws_over_refab: f64,
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// DRAM density.
    pub density: Density,
    /// Mechanism (DARP / SARPpb / DSARP).
    pub mechanism: Mechanism,
    /// Maximum WS improvement over `REFpb`, percent.
    pub max_over_refpb_pct: f64,
    /// Maximum WS improvement over `REFab`, percent.
    pub max_over_refab_pct: f64,
    /// Gmean WS improvement over `REFpb`, percent.
    pub gmean_over_refpb_pct: f64,
    /// Gmean WS improvement over `REFab`, percent.
    pub gmean_over_refab_pct: f64,
}

/// Reduces a grid (with `RefAb`, `RefPb`, `Darp`, `SarpPb`, `Dsarp`) to
/// Figure 12's sorted curves.
pub fn reduce_fig12(grid: &Grid, densities: &[Density]) -> Vec<Fig12Point> {
    let mut out = Vec::new();
    for &d in densities {
        // Sort workloads by DARP's improvement, as the paper does.
        let mut order: Vec<(String, u32, f64)> = grid
            .rows()
            .iter()
            .filter(|r| r.mechanism == Mechanism::Darp && r.density == d)
            .filter_map(|r| {
                grid.get(&r.workload, Mechanism::RefAb, d)
                    .map(|b| (r.workload.clone(), r.category, r.ws / b.ws))
            })
            .collect();
        order.sort_by(|a, b| a.2.total_cmp(&b.2));
        for (idx, (wl, cat, _)) in order.iter().enumerate() {
            for m in FIG12_MECHS {
                let Some(row) = grid.get(wl, m, d) else {
                    continue;
                };
                let Some(base) = grid.get(wl, Mechanism::RefAb, d) else {
                    continue;
                };
                out.push(Fig12Point {
                    density: d,
                    sorted_index: idx,
                    workload: wl.clone(),
                    category: *cat,
                    mechanism: m,
                    ws_over_refab: row.ws / base.ws,
                });
            }
        }
    }
    out
}

/// Reduces the same grid to Table 2.
pub fn reduce_table2(grid: &Grid, densities: &[Density]) -> Vec<Table2Row> {
    let mut out = Vec::new();
    for &d in densities {
        for m in [Mechanism::Darp, Mechanism::SarpPb, Mechanism::Dsarp] {
            out.push(Table2Row {
                density: d,
                mechanism: m,
                max_over_refpb_pct: grid.max_improvement(m, Mechanism::RefPb, d),
                max_over_refab_pct: grid.max_improvement(m, Mechanism::RefAb, d),
                gmean_over_refpb_pct: grid.gmean_improvement(m, Mechanism::RefPb, d),
                gmean_over_refab_pct: grid.gmean_improvement(m, Mechanism::RefAb, d),
            });
        }
    }
    out
}
