//! Table 3: DSARP's effect on multi-core system metrics at 2, 4 and 8
//! cores (WS, harmonic speedup, maximum slowdown, energy per access),
//! evaluated on memory-intensive workloads at 32 Gb.

use super::harness::{Grid, WsRow};
use crate::metrics::{gmean, improvement_pct};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One column of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Core count.
    pub cores: usize,
    /// Gmean WS improvement of DSARP over `REFab`, percent.
    pub ws_improvement_pct: f64,
    /// Gmean harmonic-speedup improvement, percent.
    pub hs_improvement_pct: f64,
    /// Gmean maximum-slowdown reduction, percent.
    pub max_slowdown_reduction_pct: f64,
    /// Gmean energy-per-access reduction, percent.
    pub energy_reduction_pct: f64,
}

/// Reduces one core count's grid (containing `RefAb` and `Dsarp` rows at
/// 32 Gb) to its Table 3 column.
pub fn reduce(grid: &Grid, cores: usize) -> Table3Row {
    let density = Density::G32;
    let ratio = |f: &dyn Fn(&WsRow) -> f64| -> f64 {
        let ratios: Vec<f64> = grid
            .rows()
            .iter()
            .filter(|r| r.mechanism == Mechanism::Dsarp && r.density == density)
            .filter_map(|r| {
                grid.get(&r.workload, Mechanism::RefAb, density)
                    .map(|b| f(r) / f(b).max(1e-12))
            })
            .collect();
        gmean(&ratios)
    };
    Table3Row {
        cores,
        ws_improvement_pct: improvement_pct(ratio(&|r| r.ws), 1.0),
        hs_improvement_pct: improvement_pct(ratio(&|r| r.hs), 1.0),
        max_slowdown_reduction_pct: (1.0 - ratio(&|r| r.max_slowdown)) * 100.0,
        energy_reduction_pct: (1.0 - ratio(&|r| r.energy_nj.max(1e-12))) * 100.0,
    }
}
