//! Per-bank state: open row, earliest-issue constraint registers, and
//! refresh occupancy (whole-bank or SARP subarray-level).

use crate::Cycle;
use serde::{Deserialize, Serialize};

/// An in-flight SARP-parallelized refresh inside a bank: the refresh keeps
/// `subarray` activated until `until`, while other subarrays stay available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SarpRefresh {
    /// The subarray held by the refresh operation.
    pub subarray: usize,
    /// First cycle after the refresh completes.
    pub until: Cycle,
}

/// State machine and timing registers for one DRAM bank.
///
/// Earliest-issue registers (`next_*`) encode when each command class next
/// becomes legal for this bank; the channel combines them with rank- and
/// bus-level constraints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bank {
    open_row: Option<u32>,
    next_act: Cycle,
    next_col: Cycle,
    next_pre: Cycle,
    /// Cycle of the last ACT (for auto-precharge tRAS accounting).
    last_act: Cycle,
    /// Whole-bank refresh in progress until this cycle (non-SARP refresh).
    refresh_until: Cycle,
    /// SARP refresh in progress (bank otherwise usable).
    sarp_refresh: Option<SarpRefresh>,
    /// Refresh-unit row counter: next row group to refresh in this bank.
    ref_row_counter: u32,
}

impl Bank {
    /// A fresh, precharged, idle bank.
    pub(crate) fn new() -> Self {
        Self {
            open_row: None,
            next_act: 0,
            next_col: 0,
            next_pre: 0,
            last_act: 0,
            refresh_until: 0,
            sarp_refresh: None,
            ref_row_counter: 0,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Whether the bank is precharged (no open row).
    pub fn is_closed(&self) -> bool {
        self.open_row.is_none()
    }

    /// Whether a *whole-bank* refresh is in flight at `now`.
    pub fn is_refresh_busy(&self, now: Cycle) -> bool {
        now < self.refresh_until
    }

    /// The SARP refresh in flight at `now`, if any.
    pub fn sarp_refresh(&self, now: Cycle) -> Option<SarpRefresh> {
        self.sarp_refresh.filter(|r| now < r.until)
    }

    /// Earliest cycle an `ACT` may issue (bank-local constraints only).
    pub fn next_act(&self) -> Cycle {
        self.next_act.max(self.refresh_until)
    }

    /// Earliest cycle a column command may issue (bank-local).
    pub fn next_col(&self) -> Cycle {
        self.next_col
    }

    /// Earliest cycle a `PRE` may issue (bank-local).
    pub fn next_pre(&self) -> Cycle {
        self.next_pre
    }

    /// First cycle after the bank's whole-bank refresh window (0 if none
    /// was ever issued). `is_refresh_busy(c)` is exactly `c < refresh_until()`.
    pub fn refresh_until(&self) -> Cycle {
        self.refresh_until
    }

    // ---- mutations driven by the channel on command issue ----

    /// Applies an `ACT` issued at `t`.
    pub(crate) fn do_activate(&mut self, t: Cycle, row: u32, timing: &crate::TimingParams) {
        debug_assert!(self.open_row.is_none());
        self.open_row = Some(row);
        self.last_act = t;
        self.next_col = t + timing.rcd;
        self.next_pre = t + timing.ras;
        self.next_act = t + timing.rc;
    }

    /// Applies a `RD`/`WR` issued at `t`. `pre_floor` is the earliest cycle
    /// the bank may subsequently be precharged as a consequence of this
    /// column access (`t + tRTP` for reads, `t + CWL + BL + tWR` for writes).
    pub(crate) fn do_column(
        &mut self,
        pre_floor: Cycle,
        auto_precharge: bool,
        timing: &crate::TimingParams,
    ) {
        debug_assert!(self.open_row.is_some());
        self.next_pre = self.next_pre.max(pre_floor);
        if auto_precharge {
            // The device starts the precharge itself once both tRAS (since
            // ACT) and the column-side floor are satisfied.
            let pre_start = self.next_pre.max(self.last_act + timing.ras);
            self.open_row = None;
            self.next_act = self.next_act.max(pre_start + timing.rp);
        }
    }

    /// Applies a `PRE` issued at `t`.
    pub(crate) fn do_precharge(&mut self, t: Cycle, timing: &crate::TimingParams) {
        debug_assert!(self.open_row.is_some());
        self.open_row = None;
        self.next_act = self.next_act.max(t + timing.rp);
    }

    /// Applies a whole-bank (non-SARP) refresh occupying the bank until
    /// `until`.
    pub(crate) fn do_refresh_blocking(&mut self, until: Cycle) {
        debug_assert!(self.open_row.is_none());
        self.refresh_until = until;
    }

    /// Applies a SARP refresh of `subarray` lasting until `until`.
    pub(crate) fn do_refresh_sarp(&mut self, subarray: usize, until: Cycle) {
        self.sarp_refresh = Some(SarpRefresh { subarray, until });
    }

    /// Advances the refresh row counter by `rows`, wrapping at
    /// `rows_per_bank`, and returns the first refreshed row.
    pub(crate) fn advance_ref_counter(&mut self, rows: u32, rows_per_bank: u32) -> u32 {
        let first = self.ref_row_counter;
        self.ref_row_counter = (self.ref_row_counter + rows) % rows_per_bank;
        first
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Density, Retention, TimingParams};

    fn t() -> TimingParams {
        TimingParams::ddr3_1333(Density::G8, Retention::Ms32)
    }

    #[test]
    fn activate_sets_constraint_registers() {
        let timing = t();
        let mut b = Bank::new();
        b.do_activate(100, 7, &timing);
        assert_eq!(b.open_row(), Some(7));
        assert_eq!(b.next_col(), 100 + timing.rcd);
        assert_eq!(b.next_pre(), 100 + timing.ras);
        assert_eq!(b.next_act(), 100 + timing.rc);
    }

    #[test]
    fn read_extends_precharge_floor_only_forward() {
        let timing = t();
        let mut b = Bank::new();
        b.do_activate(0, 1, &timing);
        // A read late in the row's life pushes next_pre past tRAS.
        b.do_column(40, false, &timing);
        assert_eq!(b.next_pre(), 40);
        // An earlier floor does not pull it back.
        b.do_column(10, false, &timing);
        assert_eq!(b.next_pre(), 40);
    }

    #[test]
    fn auto_precharge_closes_row_and_schedules_next_act() {
        let timing = t();
        let mut b = Bank::new();
        b.do_activate(0, 1, &timing);
        // Read at t=9 -> pre floor t+tRTP=14, but tRAS=24 dominates.
        b.do_column(14, true, &timing);
        assert!(b.is_closed());
        assert_eq!(b.next_act(), (timing.ras + timing.rp).max(timing.rc));
    }

    #[test]
    fn precharge_closes_and_gates_act_by_trp() {
        let timing = t();
        let mut b = Bank::new();
        b.do_activate(0, 3, &timing);
        b.do_precharge(24, &timing);
        assert!(b.is_closed());
        assert_eq!(b.next_act(), timing.rc.max(24 + timing.rp));
    }

    #[test]
    fn blocking_refresh_gates_act() {
        let mut b = Bank::new();
        b.do_refresh_blocking(500);
        assert!(b.is_refresh_busy(499));
        assert!(!b.is_refresh_busy(500));
        assert_eq!(b.next_act(), 500);
    }

    #[test]
    fn sarp_refresh_expires() {
        let mut b = Bank::new();
        b.do_refresh_sarp(3, 200);
        assert_eq!(b.sarp_refresh(100).map(|r| r.subarray), Some(3));
        assert_eq!(b.sarp_refresh(200), None);
        // A SARP refresh does not gate ACT at the bank level.
        assert_eq!(b.next_act(), 0);
    }

    #[test]
    fn ref_counter_wraps() {
        let mut b = Bank::new();
        let first = b.advance_ref_counter(8, 16);
        assert_eq!(first, 0);
        assert_eq!(b.ref_row_counter, 8);
        b.advance_ref_counter(8, 16);
        assert_eq!(b.ref_row_counter, 0);
    }
}
