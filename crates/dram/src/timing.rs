//! DDR3-1333 timing parameters, density/retention scaling, and the paper's
//! Figure 5 `tRFCab` projections.
//!
//! All durations are in DRAM command-clock cycles (tCK = 1.5 ns at
//! DDR3-1333). Refresh values follow the paper exactly:
//!
//! * `tRFCab` = 350 / 530 / 890 ns for 8 / 16 / 32 Gb chips (Table 1),
//!   extended to 1610 ns at 64 Gb by the paper's Projection 2;
//! * `tREFIab` = 3.9 µs at 32 ms retention (Table 1) and 7.8 µs at 64 ms;
//! * `tREFIpb` = `tREFIab` / 8 and `tRFCpb` = `tRFCab` / 2.3 (§3.1, from the
//!   LPDDR2 ratio);
//! * DDR4 FGR 2x/4x shortens `tRFCab` by 1.35× / 1.63× while doubling /
//!   quadrupling the refresh rate (§6.5).

use serde::{Deserialize, Serialize};

/// Number of refresh commands distributed across one retention window
/// (64 ms / 7.8 µs ≈ 8192; identical for 32 ms / 3.9 µs).
pub(crate) const REFRESH_COMMANDS_PER_WINDOW: usize = 8_192;

/// DRAM chip density. The paper evaluates 8/16/32 Gb and projects to 64 Gb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Density {
    /// 8 Gb per chip (present-day in the paper; `tRFCab` = 350 ns).
    G8,
    /// 16 Gb per chip (`tRFCab` = 530 ns).
    G16,
    /// 32 Gb per chip (ITRS-2020 projection; `tRFCab` = 890 ns).
    G32,
    /// 64 Gb per chip (Projection 2; `tRFCab` = 1610 ns).
    G64,
}

impl Density {
    /// Density in gigabits.
    pub(crate) fn gigabits(self) -> u32 {
        match self {
            Density::G8 => 8,
            Density::G16 => 16,
            Density::G32 => 32,
            Density::G64 => 64,
        }
    }

    /// All-bank refresh latency in nanoseconds (paper Table 1 + Projection 2).
    pub(crate) fn trfc_ab_ns(self) -> f64 {
        match self {
            Density::G8 => 350.0,
            Density::G16 => 530.0,
            Density::G32 => 890.0,
            Density::G64 => trfc_projection2_ns(64.0),
        }
    }

    /// The three densities evaluated throughout the paper.
    pub fn evaluated() -> [Density; 3] {
        [Density::G8, Density::G16, Density::G32]
    }
}

impl std::fmt::Display for Density {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}Gb", self.gigabits())
    }
}

/// DRAM retention time. The paper's main results use 32 ms (server / LPDDR
/// setting); Table 6 re-evaluates at 64 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Retention {
    /// 32 ms retention → `tREFIab` = 3.9 µs.
    Ms32,
    /// 64 ms retention → `tREFIab` = 7.8 µs.
    Ms64,
}

impl Retention {
    /// All-bank refresh interval in nanoseconds.
    pub(crate) fn trefi_ab_ns(self) -> f64 {
        match self {
            Retention::Ms32 => 3_900.0,
            Retention::Ms64 => 7_800.0,
        }
    }

    /// Retention window in milliseconds.
    pub(crate) fn window_ms(self) -> u32 {
        match self {
            Retention::Ms32 => 32,
            Retention::Ms64 => 64,
        }
    }
}

impl std::fmt::Display for Retention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ms", self.window_ms())
    }
}

/// DDR4 fine-granularity-refresh mode (paper §6.5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FgrMode {
    /// Normal 1x refresh (equivalent to plain `REFab`).
    #[default]
    X1,
    /// 2x mode: refresh rate ×2, `tRFCab` ÷ 1.35.
    X2,
    /// 4x mode: refresh rate ×4, `tRFCab` ÷ 1.63.
    X4,
}

impl FgrMode {
    /// Rate multiplier (how many times more frequent refresh commands are).
    pub fn rate(self) -> u64 {
        match self {
            FgrMode::X1 => 1,
            FgrMode::X2 => 2,
            FgrMode::X4 => 4,
        }
    }

    /// `tRFCab` shortening factor from the DDR4 standard (paper §6.5:
    /// 1.35× at 2x, 1.63× at 4x — deliberately *not* the ideal 2×/4×).
    pub(crate) fn trfc_divisor(self) -> f64 {
        match self {
            FgrMode::X1 => 1.0,
            FgrMode::X2 => 1.35,
            FgrMode::X4 => 1.63,
        }
    }
}

impl std::fmt::Display for FgrMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FgrMode::X1 => write!(f, "1x"),
            FgrMode::X2 => write!(f, "2x"),
            FgrMode::X4 => write!(f, "4x"),
        }
    }
}

/// The paper's Figure 5 "Projection 1": linear extrapolation of `tRFCab`
/// from 1, 2 and 4 Gb devices (110 / 160 / 260 ns), in nanoseconds.
pub fn trfc_projection1_ns(gigabits: f64) -> f64 {
    // Least-squares line through (1, 110), (2, 160), (4, 260): exact fit
    // slope 50 ns/Gb, intercept 60 ns.
    60.0 + 50.0 * gigabits
}

/// The paper's Figure 5 "Projection 2" (used for evaluation): linear
/// extrapolation from 4 Gb (260 ns) and 8 Gb (350 ns), in nanoseconds.
///
/// Reproduces the paper's Table 1 values exactly: 530 ns at 16 Gb, 890 ns at
/// 32 Gb, and ~1.6 µs at 64 Gb.
pub fn trfc_projection2_ns(gigabits: f64) -> f64 {
    350.0 + 22.5 * (gigabits - 8.0)
}

/// Complete timing-parameter set for one device configuration.
///
/// Construct with [`TimingParams::ddr3_1333`]. Fields are public because the
/// controller and the experiment sweeps (Table 4 varies `tFAW`/`tRRD`) need
/// to read and override them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Clock period in picoseconds (1500 ps for DDR3-1333).
    pub tck_ps: u64,
    /// CAS (read) latency.
    pub cl: u64,
    /// CAS write latency.
    pub cwl: u64,
    /// ACT → RD/WR to the same bank.
    pub rcd: u64,
    /// PRE → ACT to the same bank.
    pub rp: u64,
    /// ACT → PRE to the same bank.
    pub ras: u64,
    /// ACT → ACT to the same bank.
    pub rc: u64,
    /// Data burst length in clocks (BL8 on a DDR bus = 4 clocks).
    pub bl: u64,
    /// Column-to-column command spacing.
    pub ccd: u64,
    /// RD → PRE to the same bank.
    pub rtp: u64,
    /// Write recovery: end of write burst → PRE.
    pub wr: u64,
    /// Write-to-read turnaround: end of write burst → RD.
    pub wtr: u64,
    /// ACT → ACT across banks of the same rank.
    pub rrd: u64,
    /// Four-activate window.
    pub faw: u64,
    /// All-bank refresh interval (`tREFIab`).
    pub refi_ab: u64,
    /// All-bank refresh latency (`tRFCab`) at the configured FGR mode.
    pub rfc_ab: u64,
    /// Per-bank refresh interval (`tREFIpb` = `tREFIab`/8).
    pub refi_pb: u64,
    /// Per-bank refresh latency (`tRFCpb` = `tRFCab(1x)`/2.3).
    pub rfc_pb: u64,
    /// Configured fine-granularity-refresh mode.
    pub fgr: FgrMode,
    /// Density this parameter set was derived for.
    pub density: Density,
    /// Retention time this parameter set was derived for.
    pub retention: Retention,
}

impl TimingParams {
    /// DDR3-1333 (CL 9) parameters for the given density and retention,
    /// following the paper's Table 1 and the Micron 8 Gb data sheet.
    pub fn ddr3_1333(density: Density, retention: Retention) -> Self {
        let tck_ps = 1_500;
        let ns = |v: f64| -> u64 { ((v * 1_000.0) / tck_ps as f64).ceil() as u64 };
        let rfc_ab = ns(density.trfc_ab_ns());
        let refi_ab = ns(retention.trefi_ab_ns());
        Self {
            tck_ps,
            cl: 9,
            cwl: 7,
            rcd: 9,
            rp: 9,
            ras: 24,
            rc: 33,
            bl: 4,
            ccd: 4,
            rtp: 5,
            wr: 10,
            wtr: 5,
            rrd: 4,
            faw: 20,
            refi_ab,
            rfc_ab,
            refi_pb: refi_ab / 8,
            // §3.1: tRFCab / tRFCpb = 2.3 measured on LPDDR2.
            rfc_pb: ((rfc_ab as f64) / 2.3).ceil() as u64,
            fgr: FgrMode::X1,
            density,
            retention,
        }
    }

    /// Overrides `tFAW` and `tRRD` (the paper's Table 4 sweeps 5/1 … 30/6).
    pub fn with_faw_rrd(mut self, faw: u64, rrd: u64) -> Self {
        self.faw = faw;
        self.rrd = rrd;
        self
    }

    /// All-bank refresh latency for a command issued in `fgr` mode,
    /// derived from the density's 1x value (paper §6.5: `tRFCab` shrinks by
    /// 1.35× / 1.63× at 2x / 4x). Policies that switch FGR modes per
    /// command (DDR4 FGR, Adaptive Refresh) use this instead of `rfc_ab`.
    pub fn rfc_ab_for(&self, fgr: FgrMode) -> u64 {
        ((self.ns_to_cycles(self.density.trfc_ab_ns()) as f64) / fgr.trfc_divisor()).ceil() as u64
    }

    /// All-bank refresh interval for commands issued in `fgr` mode
    /// (rate multiplies by 2×/4×), derived from the retention's 1x value.
    pub fn refi_ab_for(&self, fgr: FgrMode) -> u64 {
        self.ns_to_cycles(self.retention.trefi_ab_ns()) / fgr.rate()
    }

    /// Read-to-write turnaround at the command level:
    /// `CL + BL + 2 - CWL` (half-duplex bus plus two-cycle bubble, §4.2.2).
    pub(crate) fn rtw(&self) -> u64 {
        self.cl + self.bl + 2 - self.cwl
    }

    /// End-of-read-burst cycle for a read issued at `t`.
    pub(crate) fn read_done(&self, t: super::Cycle) -> super::Cycle {
        t + self.cl + self.bl
    }

    /// Converts nanoseconds to (ceiled) cycles.
    pub(crate) fn ns_to_cycles(&self, ns: f64) -> u64 {
        ((ns * 1_000.0) / self.tck_ps as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_refresh_values_8gb_32ms() {
        let t = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        assert_eq!(t.refi_ab, 2_600); // 3.9 us / 1.5 ns
        assert_eq!(t.rfc_ab, 234); // 350 ns
        assert_eq!(t.refi_pb, 325); // tREFIab / 8
        assert_eq!(t.rfc_pb, 102); // ceil(234 / 2.3)
    }

    #[test]
    fn paper_refresh_values_by_density() {
        let t16 = TimingParams::ddr3_1333(Density::G16, Retention::Ms32);
        let t32 = TimingParams::ddr3_1333(Density::G32, Retention::Ms32);
        assert_eq!(t16.rfc_ab, 354); // 530 ns
        assert_eq!(t32.rfc_ab, 594); // 890 ns
                                     // Paper §6.1: 8 * tRFCpb ~= 3.5 * tRFCab (the REFpb pathology).
        let ratio = (8 * t32.rfc_pb) as f64 / t32.rfc_ab as f64;
        assert!((ratio - 3.48).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn retention_64ms_doubles_interval_only() {
        let a = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        let b = TimingParams::ddr3_1333(Density::G8, Retention::Ms64);
        assert_eq!(b.refi_ab, 2 * a.refi_ab);
        assert_eq!(b.rfc_ab, a.rfc_ab);
        assert_eq!(b.refi_pb, 2 * a.refi_pb);
    }

    #[test]
    fn projection2_matches_table1() {
        assert_eq!(trfc_projection2_ns(16.0), 530.0);
        assert_eq!(trfc_projection2_ns(32.0), 890.0);
        assert_eq!(trfc_projection2_ns(64.0), 1_610.0);
    }

    #[test]
    fn projection1_is_steeper() {
        // Figure 5: Projection 1 reaches ~3.3 us at 64 Gb.
        assert!(trfc_projection1_ns(64.0) > 3_000.0);
        for gb in [8.0, 16.0, 32.0, 64.0] {
            assert!(trfc_projection1_ns(gb) > trfc_projection2_ns(gb));
        }
    }

    #[test]
    fn fgr_scales_rate_and_latency_sublinearly() {
        let base = TimingParams::ddr3_1333(Density::G32, Retention::Ms32);
        assert_eq!(base.refi_ab_for(FgrMode::X2), base.refi_ab / 2);
        assert_eq!(base.refi_ab_for(FgrMode::X4), base.refi_ab / 4);
        // Worst-case refresh penalty grows: rate x latency.
        let penalty = |fgr: FgrMode| base.rfc_ab_for(fgr) as f64 * fgr.rate() as f64;
        assert!(penalty(FgrMode::X2) > penalty(FgrMode::X1) * 1.4);
        assert!(penalty(FgrMode::X4) > penalty(FgrMode::X1) * 2.3);
    }

    #[test]
    fn rtw_matches_formula() {
        let t = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        assert_eq!(t.rtw(), 9 + 4 + 2 - 7);
    }

    #[test]
    fn ns_cycle_conversions_roundtrip() {
        let t = TimingParams::ddr3_1333(Density::G8, Retention::Ms32);
        assert_eq!(t.ns_to_cycles(350.0), 234);
    }
}
