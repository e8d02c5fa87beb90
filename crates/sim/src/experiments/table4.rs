//! Table 4: SARPpb's gain over `REFpb` as `tFAW`/`tRRD` vary.
//!
//! SARP pays for parallelized refreshes by inflating `tFAW`/`tRRD`
//! (§4.3.3), so looser activation windows let it parallelize more — the
//! paper sweeps `tFAW/tRRD` from 5/1 to 30/6 DRAM cycles.

use super::harness::Grid;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One column of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Four-activate window (DRAM cycles).
    pub faw: u64,
    /// Row-to-row activation delay (DRAM cycles).
    pub rrd: u64,
    /// Gmean WS improvement of SARPpb over `REFpb`, percent.
    pub ws_improvement_pct: f64,
}

/// Reduces one `(tFAW, tRRD)` point's grid (containing `RefPb` and
/// `SarpPb` rows at 32 Gb) to its Table 4 column.
pub fn reduce(grid: &Grid, faw: u64, rrd: u64) -> Table4Row {
    Table4Row {
        faw,
        rrd,
        ws_improvement_pct: grid.gmean_improvement(
            Mechanism::SarpPb,
            Mechanism::RefPb,
            Density::G32,
        ),
    }
}
