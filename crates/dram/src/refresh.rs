//! The in-DRAM refresh unit.
//!
//! Commodity LPDDR devices pick the bank to refresh with an internal
//! sequential round-robin counter (§2.2.2); DARP moves that choice to the
//! memory controller (§4.2.1) by sending the bank ID on the address bus.
//! This module models the device-side bookkeeping either way:
//!
//! * a per-rank round-robin bank counter (what a baseline device would have
//!   refreshed next — baseline controllers mirror it);
//! * the number of rows covered per refresh command, including the DDR4 FGR
//!   scaling (2x/4x modes cover half/quarter the rows per command);
//! * for SARP, the decoupled refresh-subarray / local-row counters are
//!   realized by the per-bank row counter in [`crate::Bank`] plus
//!   [`crate::Geometry::subarray_of_row`].

use crate::timing::FgrMode;
use crate::Geometry;
use serde::{Deserialize, Serialize};

/// Device-side refresh bookkeeping for one channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct RefreshUnit {
    rr_bank: Vec<usize>,
    banks_per_rank: usize,
    rows_per_refresh: u32,
    rows_per_bank: u32,
}

impl RefreshUnit {
    /// Creates the refresh unit for `ranks` ranks of the given geometry.
    pub(crate) fn new(geom: &Geometry) -> Self {
        Self {
            rr_bank: vec![0; geom.ranks_per_channel()],
            banks_per_rank: geom.banks_per_rank(),
            rows_per_refresh: geom.rows_per_refresh(),
            rows_per_bank: geom.rows_per_bank() as u32,
        }
    }

    /// The bank the in-DRAM round-robin counter would refresh next.
    pub(crate) fn next_rr_bank(&self, rank: usize) -> usize {
        self.rr_bank[rank]
    }

    /// Advances the round-robin counter after a `REFpb` (the device advances
    /// regardless of which bank the controller named, mirroring how a
    /// DARP-enabled device would keep its legacy counter in step).
    pub(crate) fn advance_rr(&mut self, rank: usize) {
        self.rr_bank[rank] = (self.rr_bank[rank] + 1) % self.banks_per_rank;
    }

    /// Rows refreshed in each covered bank by one refresh command in `fgr`
    /// mode. FGR trades more commands for fewer rows per command.
    pub(crate) fn rows_per_command(&self, fgr: FgrMode) -> u32 {
        (self.rows_per_refresh / fgr.rate() as u32).max(1)
    }

    /// Total rows per bank (for counter wrap-around).
    pub(crate) fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rr_counter_wraps_per_rank() {
        let geom = Geometry::paper_default();
        let mut u = RefreshUnit::new(&geom);
        assert_eq!(u.next_rr_bank(0), 0);
        for _ in 0..8 {
            u.advance_rr(0);
        }
        assert_eq!(u.next_rr_bank(0), 0);
        u.advance_rr(1);
        assert_eq!(u.next_rr_bank(1), 1);
        assert_eq!(u.next_rr_bank(0), 0);
    }

    #[test]
    fn fgr_scales_rows_per_command() {
        let geom = Geometry::paper_default();
        let u = RefreshUnit::new(&geom);
        assert_eq!(u.rows_per_command(FgrMode::X1), 8);
        assert_eq!(u.rows_per_command(FgrMode::X2), 4);
        assert_eq!(u.rows_per_command(FgrMode::X4), 2);
    }
}
