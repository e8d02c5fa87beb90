//! Table 5: SARPpb's gain over `REFpb` as the number of subarrays per bank
//! varies (1–64). More subarrays mean a smaller chance that a demand
//! request collides with the refreshing subarray.
//!
//! Paper Table 5 (provenance: in-tree comment, from the deleted
//! `examples/subarray_sweep.rs`): 0 % at one subarray -> 16.9 % at 64.

use super::harness::Grid;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use serde::{Deserialize, Serialize};

/// One column of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Subarrays per bank.
    pub subarrays: usize,
    /// Gmean WS improvement of SARPpb over `REFpb`, percent.
    pub ws_improvement_pct: f64,
}

/// Reduces one subarray count's grid (containing `RefPb` and `SarpPb`
/// rows at 32 Gb) to its Table 5 column.
pub fn reduce(grid: &Grid, subarrays: usize) -> Table5Row {
    Table5Row {
        subarrays,
        ws_improvement_pct: grid.gmean_improvement(
            Mechanism::SarpPb,
            Mechanism::RefPb,
            Density::G32,
        ),
    }
}
