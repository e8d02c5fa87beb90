//! Figures 6 and 7: the motivation data.
//!
//! * Fig. 6 — performance loss of all-bank refresh vs an ideal no-refresh
//!   system, across the five memory-intensity categories and three DRAM
//!   densities (the paper: up to ~20%+ at 32 Gb on all-intensive mixes).
//! * Fig. 7 — average loss of `REFab` and `REFpb` vs ideal per density
//!   (the paper: `REFpb` still loses 16.6% at 32 Gb).

use super::harness::Grid;
use crate::metrics::gmean;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One bar of Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Intensity category (`0`/`25`/`50`/`75`/`100` = % memory-intensive),
    /// or `all` for the Gmean column.
    pub category: String,
    /// DRAM density.
    pub density: Density,
    /// Performance (WS) loss of `REFab` vs no-refresh, percent.
    pub loss_pct: f64,
}

/// One bar group of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// DRAM density.
    pub density: Density,
    /// Mean WS loss of `REFab` vs no-refresh, percent.
    pub refab_loss_pct: f64,
    /// Mean WS loss of `REFpb` vs no-refresh, percent.
    pub refpb_loss_pct: f64,
}

fn loss_pct(grid: &Grid, mech: Mechanism, density: Density, category: Option<u32>) -> f64 {
    let ratios: Vec<f64> = grid
        .rows()
        .iter()
        .filter(|r| {
            r.mechanism == mech && r.density == density && category.is_none_or(|c| r.category == c)
        })
        .filter_map(|r| {
            grid.get(&r.workload, Mechanism::NoRefresh, density)
                .map(|ideal| r.ws / ideal.ws)
        })
        .collect();
    (1.0 - gmean(&ratios)) * 100.0
}

/// Reduces a grid (containing `NoRefresh`, `RefAb`, `RefPb` rows) to the
/// two figures.
pub fn reduce(grid: &Grid, densities: &[Density]) -> (Vec<Fig6Row>, Vec<Fig7Row>) {
    let mut fig6 = Vec::new();
    let mut fig7 = Vec::new();
    for &d in densities {
        for cat in [0u32, 25, 50, 75, 100] {
            fig6.push(Fig6Row {
                category: cat.to_string(),
                density: d,
                loss_pct: loss_pct(grid, Mechanism::RefAb, d, Some(cat)),
            });
        }
        fig6.push(Fig6Row {
            category: "all".into(),
            density: d,
            loss_pct: loss_pct(grid, Mechanism::RefAb, d, None),
        });
        fig7.push(Fig7Row {
            density: d,
            refab_loss_pct: loss_pct(grid, Mechanism::RefAb, d, None),
            refpb_loss_pct: loss_pct(grid, Mechanism::RefPb, d, None),
        });
    }
    (fig6, fig7)
}
