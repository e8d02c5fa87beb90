//! Per-rank state: activation-rate limits (`tRRD`, `tFAW`) with SARP
//! power-integrity inflation, refresh occupancy, and bank aggregation.

use crate::bank::Bank;
use crate::{Cycle, TimingParams};
use serde::{Deserialize, Serialize};

/// Rank-level state: the banks plus rank-scoped timing constraints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Timestamps of recent activations (refreshes count too), newest last.
    /// Only the last 4 matter for `tFAW`; the last one for `tRRD`.
    act_history: [Cycle; 4],
    act_count: u64,
    /// First cycle after the last `REFpb` window: the LPDDR standard allows
    /// one `REFpb` in flight per rank.
    refpb_until: Cycle,
    /// Whole-rank `REFab` busy window (non-SARP all-bank refresh).
    refab_until: Cycle,
    /// SARP inflation window: while `now < sarp_until`, effective
    /// `tRRD`/`tFAW` are multiplied by `sarp_factor`.
    sarp_until: Cycle,
    sarp_factor: f64,
    /// The inflated `tRRD`/`tFAW` of the current window, computed once when
    /// it opens (every ACT probe inside the window reads them).
    sarp_rrd: u64,
    sarp_faw: u64,
}

impl Rank {
    /// Creates a rank with `banks` precharged banks.
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            banks: (0..banks).map(|_| Bank::new()).collect(),
            act_history: [Cycle::MIN; 4],
            act_count: 0,
            refpb_until: 0,
            refab_until: 0,
            sarp_until: 0,
            sarp_factor: 1.0,
            sarp_rrd: 0,
            sarp_faw: 0,
        }
    }

    /// Immutable access to a bank.
    pub fn bank(&self, idx: usize) -> &Bank {
        &self.banks[idx]
    }

    /// Mutable access to a bank (crate-internal; the channel drives it).
    pub(crate) fn bank_mut(&mut self, idx: usize) -> &mut Bank {
        &mut self.banks[idx]
    }

    /// Number of banks.
    pub(crate) fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Iterator over banks.
    pub fn banks(&self) -> impl Iterator<Item = &Bank> {
        self.banks.iter()
    }

    /// Whether every bank is precharged (required before `REFab`).
    pub fn all_banks_closed(&self) -> bool {
        self.banks.iter().all(Bank::is_closed)
    }

    /// Whether a non-SARP all-bank refresh is in flight at `now`.
    pub fn is_refab_busy(&self, now: Cycle) -> bool {
        now < self.refab_until
    }

    /// Whether a `REFpb` is in flight in the rank at `now`, so no other
    /// may start (the JEDEC no-overlap rule).
    pub fn is_refpb_busy(&self, now: Cycle) -> bool {
        now < self.refpb_until
    }

    /// First cycle after the rank's `REFpb` window (0 if none was ever
    /// issued). `is_refpb_busy(c)` is exactly `c < refpb_until()`.
    pub fn refpb_until(&self) -> Cycle {
        self.refpb_until
    }

    /// First cycle after the rank's blocking `REFab` window (0 if none was
    /// ever issued). `is_refab_busy(c)` is exactly `c < refab_until()`.
    pub fn refab_until(&self) -> Cycle {
        self.refab_until
    }

    /// The earliest cycle `c >= now` at which the rank's activation rate
    /// limits admit a new activation (an ACT or a refresh's internal one):
    /// `c` is at least `tRRD` after the last activation and `tFAW` after
    /// the fourth-last, with the rates in force *at `c`*.
    ///
    /// SARP inflates those rates (Eq. 2-3) for cycles before the window's
    /// end and not after it, so the earliest legal cycle is the inflated
    /// bound if it lands inside the window, and otherwise the nominal bound
    /// clamped to the window's end. `earliest_act_allowed(now) == now` is
    /// "an activation may start now".
    pub fn earliest_act_allowed(&self, now: Cycle, timing: &TimingParams) -> Cycle {
        let bound = |rrd: u64, faw: u64| {
            let mut t = now;
            if self.act_count > 0 {
                let last = self.act_history[((self.act_count - 1) % 4) as usize];
                t = t.max(last + rrd);
            }
            if self.act_count >= 4 {
                let fourth_last = self.act_history[(self.act_count % 4) as usize];
                t = t.max(fourth_last + faw);
            }
            t
        };
        if now >= self.sarp_until {
            return bound(timing.rrd, timing.faw);
        }
        let t_inflated = bound(self.sarp_rrd, self.sarp_faw);
        if t_inflated < self.sarp_until {
            t_inflated
        } else {
            // Nominal rates only apply from the window's end onward.
            bound(timing.rrd, timing.faw).max(self.sarp_until)
        }
    }

    /// Records an activation at `t` (ACTs and refreshes both count toward
    /// the rate limits — refreshes internally activate rows, §4.3.3).
    pub(crate) fn record_act(&mut self, t: Cycle) {
        self.act_history[(self.act_count % 4) as usize] = t;
        self.act_count += 1;
    }

    /// Marks a `REFpb` in flight in the rank until `until`.
    pub(crate) fn start_refpb(&mut self, until: Cycle) {
        self.refpb_until = until;
    }

    /// Marks a blocking `REFab` occupying the whole rank until `until`.
    pub(crate) fn start_refab_blocking(&mut self, until: Cycle) {
        self.refab_until = until;
    }

    /// Opens a SARP inflation window `[now, until)` with the given factor,
    /// inflating `timing`'s `tRRD`/`tFAW` (Eq. 2-3). Overlapping windows keep
    /// the later deadline and the larger factor.
    pub(crate) fn start_sarp_window(&mut self, until: Cycle, factor: f64, timing: &TimingParams) {
        self.sarp_until = self.sarp_until.max(until);
        self.sarp_factor = if factor > self.sarp_factor {
            factor
        } else {
            self.sarp_factor
        };
        self.sarp_rrd = ((timing.rrd as f64) * self.sarp_factor).ceil() as u64;
        self.sarp_faw = ((timing.faw as f64) * self.sarp_factor).ceil() as u64;
        // Reset the factor lazily when the window expires: approximated by
        // keeping the max factor; windows of different scopes never overlap
        // in practice because a policy uses a single refresh granularity.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Density, Retention};

    fn timing() -> TimingParams {
        TimingParams::ddr3_1333(Density::G8, Retention::Ms32)
    }

    /// The pointwise rule [`Rank::earliest_act_allowed`] solves for: may
    /// an activation start at `c`, under the rates in force at `c`.
    fn act_legal_at(r: &Rank, c: Cycle, t: &TimingParams) -> bool {
        let (rrd, faw) = if c < r.sarp_until {
            (r.sarp_rrd, r.sarp_faw)
        } else {
            (t.rrd, t.faw)
        };
        let n = r.act_count;
        (n == 0 || c >= r.act_history[((n - 1) % 4) as usize] + rrd)
            && (n < 4 || c >= r.act_history[(n % 4) as usize] + faw)
    }

    #[test]
    fn trrd_spaces_consecutive_activations() {
        let t = timing();
        let mut r = Rank::new(8);
        assert_eq!(r.earliest_act_allowed(0, &t), 0);
        r.record_act(10);
        assert_eq!(r.earliest_act_allowed(10, &t), 10 + t.rrd);
        assert_eq!(r.earliest_act_allowed(20, &t), 20);
    }

    #[test]
    fn tfaw_limits_four_activations() {
        let t = timing();
        let mut r = Rank::new(8);
        for i in 0..4 {
            r.record_act(i * t.rrd);
        }
        // Fifth ACT must wait until first + tFAW = 0 + 20.
        assert_eq!(r.earliest_act_allowed(3 * t.rrd + t.rrd, &t), t.faw);
    }

    #[test]
    fn sarp_window_inflates_rates() {
        let t = timing();
        let (rrd, faw) = ((4.0f64 * 2.1).ceil() as u64, 42);
        let windowed = |acts: &[Cycle]| {
            let mut r = Rank::new(8);
            r.start_sarp_window(1_000, 2.1, &t);
            for &a in acts {
                r.record_act(a);
            }
            r
        };
        // Inside the window, tRRD and tFAW are inflated...
        assert_eq!(windowed(&[500]).earliest_act_allowed(500, &t), 500 + rrd);
        let four = [500, 500 + rrd, 500 + 2 * rrd, 500 + 3 * rrd];
        assert_eq!(windowed(&four).earliest_act_allowed(four[3], &t), 500 + faw);
        // ...and after it, back to nominal.
        assert_eq!(
            windowed(&[1_000]).earliest_act_allowed(1_000, &t),
            1_000 + t.rrd
        );
        let four = [1_000, 1_000 + t.rrd, 1_000 + 2 * t.rrd, 1_000 + 3 * t.rrd];
        assert_eq!(
            windowed(&four).earliest_act_allowed(four[3], &t),
            1_000 + t.faw
        );
    }

    #[test]
    fn refpb_nonoverlap_window() {
        let mut r = Rank::new(8);
        r.start_refpb(300);
        assert!(r.is_refpb_busy(299));
        assert!(!r.is_refpb_busy(300));
        assert_eq!(r.refpb_until(), 300);
    }

    #[test]
    fn earliest_act_allowed_matches_pointwise_probe() {
        let t = timing();
        let mut r = Rank::new(8);
        for i in 0..4 {
            r.record_act(i * t.rrd);
        }
        // A SARP window ending mid-history exercises both regimes of the
        // two-regime solve (inflated release inside the window, nominal
        // release clamped to its end).
        r.start_sarp_window(18, 2.25, &t);
        for now in 0..60 {
            let e = r.earliest_act_allowed(now, &t);
            assert!(e >= now);
            assert!(act_legal_at(&r, e, &t), "now={now}: {e} not legal");
            for c in now..e {
                assert!(
                    !act_legal_at(&r, c, &t),
                    "now={now}: {c} legal before reported {e}"
                );
            }
        }
    }

    #[test]
    fn refab_blocks_rank() {
        let mut r = Rank::new(8);
        r.start_refab_blocking(700);
        assert!(r.is_refab_busy(699));
        assert!(!r.is_refab_busy(700));
    }

    #[test]
    fn all_banks_closed_tracks_bank_state() {
        let t = timing();
        let mut r = Rank::new(2);
        assert!(r.all_banks_closed());
        r.bank_mut(1).do_activate(0, 5, &t);
        assert!(!r.all_banks_closed());
        r.bank_mut(1).do_precharge(t.ras, &t);
        assert!(r.all_banks_closed());
    }
}
