//! IDD-based DRAM energy model following the Micron power-calculator
//! methodology the paper uses (§5, ref. 27).
//!
//! Energy is accumulated as event counts and busy intervals during
//! simulation ([`EnergyCounters`]) and converted to joules at reporting time
//! by [`PowerModel`]. The paper reports *energy per memory access serviced*;
//! [`EnergyBreakdown::per_access_nj`] provides exactly that.

use crate::Cycle;
use serde::{Deserialize, Serialize};

/// IDD current values (mA) and supply voltage for one device, as found in a
/// DDR3 data sheet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IddValues {
    /// One-bank activate-precharge current.
    pub idd0: f64,
    /// Precharge standby current.
    pub idd2n: f64,
    /// Active standby current.
    pub idd3n: f64,
    /// Burst read current.
    pub idd4r: f64,
    /// Burst write current.
    pub idd4w: f64,
    /// Burst (all-bank) refresh current.
    pub idd5b: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
}

impl IddValues {
    /// Values for a Micron 8 Gb DDR3-1333 device (the paper’s DRAM, ref. 29).
    ///
    /// Chosen so the paper's §4.3.3 derivations hold exactly:
    /// `I_ACT = IDD0 − IDD3N`, `I_REF = IDD5B − IDD3N`, and
    /// `(4·I_ACT + I_REF)/(4·I_ACT)` = 2.1 (all-bank) / 1.138 (per-bank).
    pub fn micron_8gb_ddr3_1333() -> Self {
        Self {
            idd0: 100.0,
            idd2n: 40.0,
            idd3n: 50.0,
            idd4r: 200.0,
            idd4w: 210.0,
            idd5b: 270.0,
            vdd: 1.5,
        }
    }

    /// Effective activation current `I_ACT` = IDD0 − IDD3N (mA).
    pub(crate) fn activate_ma(&self) -> f64 {
        self.idd0 - self.idd3n
    }

    /// Effective all-bank refresh current `I_REF` = IDD5B − IDD3N (mA).
    pub(crate) fn refresh_ma(&self) -> f64 {
        self.idd5b - self.idd3n
    }
}

impl Default for IddValues {
    fn default() -> Self {
        Self::micron_8gb_ddr3_1333()
    }
}

/// Event counts and busy intervals accumulated by a [`crate::DramChannel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyCounters {
    acts: u64,
    reads: u64,
    writes: u64,
    refab_cmds: u64,
    refab_cycles: u64,
    refpb_cmds: u64,
    refpb_cycles: u64,
    /// Per-rank background accounting.
    rank_active: Vec<bool>,
    rank_last_change: Vec<Cycle>,
    rank_active_cycles: Vec<u64>,
    finalized_at: Cycle,
}

impl EnergyCounters {
    /// Fresh counters for `ranks` ranks.
    pub(crate) fn new(ranks: usize) -> Self {
        Self {
            acts: 0,
            reads: 0,
            writes: 0,
            refab_cmds: 0,
            refab_cycles: 0,
            refpb_cmds: 0,
            refpb_cycles: 0,
            rank_active: vec![false; ranks],
            rank_last_change: vec![0; ranks],
            rank_active_cycles: vec![0; ranks],
            finalized_at: 0,
        }
    }

    pub(crate) fn record_act(&mut self) {
        self.acts += 1;
    }

    pub(crate) fn record_read(&mut self) {
        self.reads += 1;
    }

    pub(crate) fn record_write(&mut self) {
        self.writes += 1;
    }

    pub(crate) fn record_refab(&mut self, rfc: u64) {
        self.refab_cmds += 1;
        self.refab_cycles += rfc;
    }

    pub(crate) fn record_refpb(&mut self, rfc: u64) {
        self.refpb_cmds += 1;
        self.refpb_cycles += rfc;
    }

    pub(crate) fn rank_goes_active(&mut self, rank: usize, now: Cycle) {
        if !self.rank_active[rank] {
            self.rank_active[rank] = true;
            self.rank_last_change[rank] = now;
        }
    }

    pub(crate) fn rank_goes_idle(&mut self, rank: usize, now: Cycle) {
        if self.rank_active[rank] {
            self.rank_active[rank] = false;
            self.rank_active_cycles[rank] += now - self.rank_last_change[rank];
        }
    }

    /// Flushes background accounting up to `now` (end of run).
    pub(crate) fn finalize(&mut self, now: Cycle) {
        for r in 0..self.rank_active.len() {
            if self.rank_active[r] {
                self.rank_active_cycles[r] += now.saturating_sub(self.rank_last_change[r]);
                self.rank_last_change[r] = now;
            }
        }
        self.finalized_at = self.finalized_at.max(now);
    }

    /// Reads + writes serviced (the paper's per-access denominator).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total rank-cycles spent with at least one open row.
    pub fn active_rank_cycles(&self) -> u64 {
        self.rank_active_cycles.iter().sum()
    }
}

/// Energy totals in nanojoules, split by source.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Activate + precharge energy.
    pub act_pre_nj: f64,
    /// Read burst energy.
    pub read_nj: f64,
    /// Write burst energy.
    pub write_nj: f64,
    /// Refresh energy (both granularities).
    pub refresh_nj: f64,
    /// Background (standby/active) energy.
    pub background_nj: f64,
    /// Accesses serviced (denominator for per-access energy).
    pub accesses: u64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.act_pre_nj + self.read_nj + self.write_nj + self.refresh_nj + self.background_nj
    }

    /// The paper's Figure 14 metric: energy per memory access serviced (nJ).
    pub fn per_access_nj(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_nj() / self.accesses as f64
        }
    }
}

/// Converts `EnergyCounters` into joules for a given device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Device IDD values.
    pub idd: IddValues,
    /// Clock period in picoseconds.
    pub tck_ps: u64,
    /// Number of ranks sharing the accounting (for standby energy).
    pub ranks: usize,
}

impl PowerModel {
    /// Power model for a device with the given timing.
    pub fn new(idd: IddValues, tck_ps: u64, ranks: usize) -> Self {
        Self { idd, tck_ps, ranks }
    }

    fn nj(&self, ma: f64, cycles: f64) -> f64 {
        // mA * V * cycles * tCK  =>  1e-3 A * V * s... expressed in nJ:
        // mA * V * (cycles * tck_ps) ps = ma * vdd * cycles * tck_ps * 1e-6 nJ
        ma * self.idd.vdd * cycles * self.tck_ps as f64 * 1e-6
    }

    /// Computes the energy breakdown for one channel's counters, using the
    /// Micron methodology:
    ///
    /// * activate/precharge: `(IDD0 − IDD3N) · VDD · tRC` per ACT,
    /// * read/write bursts: `(IDD4R/W − IDD3N) · VDD · tBL` per burst,
    /// * refresh: `(IDD5B − IDD3N) · VDD · tRFC` per `REFab`
    ///   (⅛ of that current per `REFpb`, paper §4.3.3),
    /// * background: `IDD3N` over active rank-cycles, `IDD2N` over the rest.
    pub fn energy(&self, c: &EnergyCounters, timing: &crate::TimingParams) -> EnergyBreakdown {
        let act_pre_nj = self.nj(self.idd.activate_ma(), (c.acts * timing.rc) as f64);
        let read_nj = self.nj(
            self.idd.idd4r - self.idd.idd3n,
            (c.reads * timing.bl) as f64,
        );
        let write_nj = self.nj(
            self.idd.idd4w - self.idd.idd3n,
            (c.writes * timing.bl) as f64,
        );
        let refresh_nj = self.nj(self.idd.refresh_ma(), c.refab_cycles as f64)
            + self.nj(self.idd.refresh_ma() / 8.0, c.refpb_cycles as f64);
        let total_rank_cycles = c.finalized_at * self.ranks as u64;
        let active = c.active_rank_cycles().min(total_rank_cycles);
        let standby = total_rank_cycles - active;
        let background_nj =
            self.nj(self.idd.idd3n, active as f64) + self.nj(self.idd.idd2n, standby as f64);
        EnergyBreakdown {
            act_pre_nj,
            read_nj,
            write_nj,
            refresh_nj,
            background_nj,
            accesses: c.accesses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Density, Retention, TimingParams};

    fn timing() -> TimingParams {
        TimingParams::ddr3_1333(Density::G8, Retention::Ms32)
    }

    #[test]
    fn refpb_current_is_one_eighth_of_refab() {
        let idd = IddValues::micron_8gb_ddr3_1333();
        let pm = PowerModel::new(idd, 1_500, 2);
        let t = timing();
        let mut a = EnergyCounters::new(2);
        a.record_refab(t.rfc_ab);
        a.finalize(0);
        let mut b = EnergyCounters::new(2);
        // Eight REFpb ~ one REFab worth of rows; each at 1/8 current over
        // tRFCpb: total energy is 8 * (1/8) * tRFCpb = tRFCpb at full
        // current, i.e. less than REFab's tRFCab at full current.
        for _ in 0..8 {
            b.record_refpb(t.rfc_pb);
        }
        b.finalize(0);
        let ea = pm.energy(&a, &t).refresh_nj;
        let eb = pm.energy(&b, &t).refresh_nj;
        assert!(eb < ea, "per-bank refresh energy {eb} should be below {ea}");
        assert!((eb / ea - (t.rfc_pb as f64 / t.rfc_ab as f64)).abs() < 1e-9);
    }

    #[test]
    fn background_splits_active_and_standby() {
        let idd = IddValues::micron_8gb_ddr3_1333();
        let pm = PowerModel::new(idd, 1_500, 1);
        let t = timing();
        let mut c = EnergyCounters::new(1);
        c.rank_goes_active(0, 100);
        c.rank_goes_idle(0, 300);
        c.finalize(1_000);
        let e = pm.energy(&c, &t);
        // 200 active cycles at IDD3N + 800 standby at IDD2N.
        let expect = 50.0 * 1.5 * 200.0 * 1_500.0 * 1e-6 + 40.0 * 1.5 * 800.0 * 1_500.0 * 1e-6;
        assert!((e.background_nj - expect).abs() < 1e-9);
    }

    #[test]
    fn idle_transitions_are_idempotent() {
        let mut c = EnergyCounters::new(1);
        c.rank_goes_idle(0, 50); // already idle: no-op
        c.rank_goes_active(0, 100);
        c.rank_goes_active(0, 150); // already active: no-op
        c.rank_goes_idle(0, 200);
        assert_eq!(c.active_rank_cycles(), 100);
    }

    #[test]
    fn per_access_energy_divides_by_accesses() {
        let idd = IddValues::micron_8gb_ddr3_1333();
        let pm = PowerModel::new(idd, 1_500, 1);
        let t = timing();
        let mut c = EnergyCounters::new(1);
        c.record_act();
        c.record_read();
        c.record_read();
        c.finalize(100);
        let e = pm.energy(&c, &t);
        assert_eq!(e.accesses, 2);
        assert!((e.per_access_nj() - e.total_nj() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_access_energy_is_zero_per_access() {
        let e = EnergyBreakdown::default();
        assert_eq!(e.per_access_nj(), 0.0);
    }

    #[test]
    fn paper_iact_iref_relationship() {
        let idd = IddValues::micron_8gb_ddr3_1333();
        assert_eq!(idd.activate_ma(), 50.0);
        assert_eq!(idd.refresh_ma(), 220.0);
    }
}
