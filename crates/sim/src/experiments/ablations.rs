//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Not paper artifacts — these quantify the cost/benefit of individual
//! pieces of the mechanisms:
//!
//! 1. **SARP power throttle** — the `tFAW`/`tRRD` inflation of Eq. (1)–(3)
//!    is mandatory for power integrity; disabling it bounds how much
//!    performance the throttle costs (the gap between SARPpb and an
//!    unthrottled, physically impossible variant).
//! 2. **DARP component split** — out-of-order refresh alone vs full DARP
//!    (also visible in Figure 13, repeated here against `REFpb`).
//! 3. **Write-drain watermarks** — the paper fixes only the low watermark
//!    (32); this sweep shows the high watermark choice is not load-bearing.

use super::harness::Grid;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which ablation.
    pub study: String,
    /// Variant label.
    pub variant: String,
    /// Gmean WS improvement over the study's baseline, percent.
    pub ws_improvement_pct: f64,
}

/// The grids the three ablations reduce from, one per campaign sweep.
#[derive(Debug, Clone, Default)]
pub struct AblationGrids {
    /// `RefPb` + `SarpPb` under the paper's real (throttled) device.
    pub throttle: Grid,
    /// `SarpPb` with the power throttle ablated.
    pub unthrottled: Grid,
    /// `RefPb` + `DarpOooOnly` + `Darp`.
    pub darp: Grid,
    /// Per `(enter, exit)` watermark pair: `RefPb` + `Darp` grids.
    pub watermarks: Vec<(usize, usize, Grid)>,
}

/// Reduces the ablation grids to the result rows.
pub fn reduce(grids: &AblationGrids) -> Vec<AblationRow> {
    let density = Density::G32;
    let mut out = Vec::new();

    // 1. SARP power throttle: REFpb vs SARPpb vs unthrottled SARPpb.
    out.push(AblationRow {
        study: "sarp_power_throttle".into(),
        variant: "throttled (real device)".into(),
        ws_improvement_pct: grids.throttle.gmean_improvement(
            Mechanism::SarpPb,
            Mechanism::RefPb,
            density,
        ),
    });
    // Merge the plain REFpb baseline rows so the ratio can be formed.
    let mut merged = grids.unthrottled.clone();
    merged.merge(Grid::from_rows(
        grids
            .throttle
            .rows()
            .iter()
            .filter(|r| r.mechanism == Mechanism::RefPb)
            .cloned()
            .collect(),
    ));
    out.push(AblationRow {
        study: "sarp_power_throttle".into(),
        variant: "unthrottled (ablation)".into(),
        ws_improvement_pct: merged.gmean_improvement(Mechanism::SarpPb, Mechanism::RefPb, density),
    });

    // 2. DARP components vs REFpb.
    for (m, label) in [
        (Mechanism::DarpOooOnly, "out-of-order only"),
        (Mechanism::Darp, "out-of-order + write-refresh"),
    ] {
        out.push(AblationRow {
            study: "darp_components".into(),
            variant: label.into(),
            ws_improvement_pct: grids.darp.gmean_improvement(m, Mechanism::RefPb, density),
        });
    }

    // 3. Drain watermarks under DARP (vs the same watermark's REFpb).
    for (enter, exit, grid) in &grids.watermarks {
        out.push(AblationRow {
            study: "drain_watermarks".into(),
            variant: format!("enter {enter} / exit {exit}"),
            ws_improvement_pct: grid.gmean_improvement(Mechanism::Darp, Mechanism::RefPb, density),
        });
    }
    out
}
